package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlanarDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 2, 0}, Point{1, 2, 0}, 0},
		{"unit x", Point{0, 0, 0}, Point{1, 0, 0}, 1},
		{"unit y", Point{0, 0, 0}, Point{0, 1, 0}, 1},
		{"3-4-5", Point{0, 0, 0}, Point{3, 4, 0}, 5},
		{"floors ignored", Point{0, 0, 0}, Point{3, 4, 7}, 5},
		{"negative coords", Point{-3, -4, 0}, Point{0, 0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.PlanarDist(tt.q); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("PlanarDist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestPlanarDistSymmetric(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	f := func(ax, ay, bx, by float64) bool {
		p := Point{X: clamp(ax), Y: clamp(ay)}
		q := Point{X: clamp(bx), Y: clamp(by)}
		return math.Abs(p.PlanarDist(q)-q.PlanarDist(p)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlanarDistTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Constrain magnitudes to avoid float overflow noise from quick's
		// extreme values.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{X: clamp(ax), Y: clamp(ay)}
		b := Point{X: clamp(bx), Y: clamp(by)}
		c := Point{X: clamp(cx), Y: clamp(cy)}
		return a.PlanarDist(c) <= a.PlanarDist(b)+b.PlanarDist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalises(t *testing.T) {
	r := NewRect(5, 9, 1, 3, 0)
	if r.MinX != 1 || r.MaxX != 5 || r.MinY != 3 || r.MaxY != 9 {
		t.Errorf("NewRect did not normalise corners: %+v", r)
	}
}

func TestRectDimensions(t *testing.T) {
	r := NewRect(0, 0, 4, 3, 1)
	if r.Width() != 4 {
		t.Errorf("Width = %v, want 4", r.Width())
	}
	if r.Height() != 3 {
		t.Errorf("Height = %v, want 3", r.Height())
	}
	if r.Area() != 12 {
		t.Errorf("Area = %v, want 12", r.Area())
	}
	c := r.Center()
	if c.X != 2 || c.Y != 1.5 || c.Floor != 1 {
		t.Errorf("Center = %v, want (2, 1.5, F1)", c)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(0, 0, 10, 10, 0)
	tests := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5, 0}, true},
		{Point{0, 0, 0}, true},   // boundary corner
		{Point{10, 10, 0}, true}, // boundary corner
		{Point{5, 5, 1}, false},  // wrong floor
		{Point{11, 5, 0}, false},
		{Point{5, -0.1, 0}, false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectTranslate(t *testing.T) {
	r := NewRect(0, 0, 4, 3, 1)
	got := r.Translate(10, -2, 3)
	want := Rect{MinX: 10, MinY: -2, MaxX: 14, MaxY: 1, Floor: 4}
	if got != want {
		t.Errorf("Translate = %+v, want %+v", got, want)
	}
}

func TestStringers(t *testing.T) {
	if s := (Point{1, 2, 3}).String(); s == "" {
		t.Error("Point.String returned empty string")
	}
	if s := NewRect(0, 0, 1, 1, 0).String(); s == "" {
		t.Error("Rect.String returned empty string")
	}
}
