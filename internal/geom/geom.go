// Package geom provides the small geometric vocabulary used by the indoor
// data model: three-dimensional points (x, y, floor), Euclidean distances and
// axis-aligned rectangles describing indoor partitions.
//
// The paper models an indoor venue with a three dimensional coordinate system
// where the first two coordinates are the planar position of an entity and the
// third is the floor number (Section 4.1). Distances inside a partition are
// planar Euclidean distances; vertical movement only happens through special
// partitions (stairs, lifts, escalators) whose traversal cost is an edge
// weight in the door-to-door graph, not a geometric distance.
package geom

import (
	"fmt"
	"math"
)

// Point is a location inside an indoor venue. X and Y are planar coordinates
// in metres; Floor is the floor number the point lies on (0 = ground floor,
// negative floors are basements).
type Point struct {
	X, Y  float64
	Floor int
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f, F%d)", p.X, p.Y, p.Floor)
}

// PlanarDist returns the Euclidean distance between p and q ignoring the
// floor component. It is the indoor walking distance between two locations
// inside the same convex partition.
func (p Point) PlanarDist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Rect is an axis-aligned rectangle on a single floor. It describes the
// footprint of an indoor partition (room, hallway, staircase landing).
type Rect struct {
	MinX, MinY float64
	MaxX, MaxY float64
	Floor      int
}

// NewRect returns the rectangle with the given corners, normalising the
// coordinate order so that Min <= Max on both axes.
func NewRect(x1, y1, x2, y2 float64, floor int) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2, Floor: floor}
}

// Width returns the extent of r along the x axis.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Area returns the planar area of r in square metres.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the planar centre of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2, Floor: r.Floor}
}

// Contains reports whether p lies inside r (inclusive of the boundary) and on
// the same floor.
func (r Rect) Contains(p Point) bool {
	return p.Floor == r.Floor &&
		p.X >= r.MinX && p.X <= r.MaxX &&
		p.Y >= r.MinY && p.Y <= r.MaxY
}

// Translate returns a copy of r shifted by (dx, dy) and df floors.
func (r Rect) Translate(dx, dy float64, df int) Rect {
	return Rect{
		MinX: r.MinX + dx, MinY: r.MinY + dy,
		MaxX: r.MaxX + dx, MaxY: r.MaxY + dy,
		Floor: r.Floor + df,
	}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.1f,%.1f]x[%.1f,%.1f]@F%d", r.MinX, r.MaxX, r.MinY, r.MaxY, r.Floor)
}
