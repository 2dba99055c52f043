package venuegen

import (
	"math/rand"
	"strings"
	"testing"

	"viptree/internal/model"
)

func TestBuildingDefaults(t *testing.T) {
	v, err := Building(BuildingConfig{Name: "defaults"})
	if err != nil {
		t.Fatalf("Building: %v", err)
	}
	if v.NumPartitions() == 0 || v.NumDoors() == 0 {
		t.Fatal("default building is empty")
	}
	if !v.D2D().Graph.Connected() {
		t.Error("default building D2D graph must be connected")
	}
}

func TestBuildingShape(t *testing.T) {
	cfg := BuildingConfig{
		Name:             "shape",
		Floors:           3,
		HallwaysPerFloor: 2,
		RoomsPerHallway:  10,
		Staircases:       2,
		Lifts:            1,
		Entrances:        2,
		Seed:             1,
	}
	v := MustBuilding(cfg)
	s := v.ComputeStats()
	// Partitions: 3 floors * (2 hallways + 20 rooms) + vertical:
	// 2 floor-gaps * (2 stairs + 1 lift) = 66 + 6 = 72.
	if s.Partitions != 72 {
		t.Errorf("partitions = %d, want 72", s.Partitions)
	}
	if s.Floors != 3 {
		t.Errorf("floors = %d, want 3", s.Floors)
	}
	if s.Hallways < 6 {
		t.Errorf("hallways = %d, want >= 6", s.Hallways)
	}
	if s.StairOrLifts != 6 {
		t.Errorf("stairs+lifts = %d, want 6", s.StairOrLifts)
	}
	if !v.D2D().Graph.Connected() {
		t.Error("building D2D graph must be connected")
	}
}

func TestBuildingDoubleDoors(t *testing.T) {
	with := MustBuilding(BuildingConfig{Name: "dd", Floors: 1, RoomsPerHallway: 40, DoubleDoorFraction: 1, Seed: 5})
	without := MustBuilding(BuildingConfig{Name: "nd", Floors: 1, RoomsPerHallway: 40, DoubleDoorFraction: 0, Seed: 5})
	if with.NumDoors() <= without.NumDoors() {
		t.Errorf("DoubleDoorFraction=1 should add doors: %d vs %d", with.NumDoors(), without.NumDoors())
	}
	// With double doors some rooms become general partitions.
	s := with.ComputeStats()
	if s.General == 0 {
		t.Error("expected some general partitions with double doors")
	}
}

func TestCampusConnectivityAndShape(t *testing.T) {
	v := MustCampus(CampusConfig{
		Name:      "campus",
		Buildings: 6,
		Building: BuildingConfig{
			Floors:          2,
			RoomsPerHallway: 8,
			Staircases:      1,
		},
		GridColumns: 3,
		Seed:        9,
	})
	if !v.D2D().Graph.Connected() {
		t.Fatal("campus D2D graph must be connected")
	}
	if len(v.OutdoorEdges) == 0 {
		t.Error("campus should have outdoor edges between buildings")
	}
	s := v.ComputeStats()
	if s.Floors != 2 {
		t.Errorf("floors = %d, want 2", s.Floors)
	}
	if s.Partitions < 6*(2+16) {
		t.Errorf("partitions = %d, want at least %d", s.Partitions, 6*(2+16))
	}
}

func TestCampusJitterDeterministic(t *testing.T) {
	cfg := CampusConfig{
		Name:      "jit",
		Buildings: 4,
		Building:  BuildingConfig{Floors: 3, RoomsPerHallway: 10},
		Jitter:    true,
		Seed:      77,
	}
	a := MustCampus(cfg)
	b := MustCampus(cfg)
	if a.NumDoors() != b.NumDoors() || a.NumPartitions() != b.NumPartitions() {
		t.Error("campus generation with the same seed should be deterministic")
	}
}

func TestReplicate(t *testing.T) {
	base := MustBuilding(BuildingConfig{Name: "base", Floors: 2, RoomsPerHallway: 6, Staircases: 1, Seed: 3})
	rep, err := Replicate(base, 2, 0)
	if err != nil {
		t.Fatalf("Replicate: %v", err)
	}
	if !rep.D2D().Graph.Connected() {
		t.Fatal("replicated venue must be connected")
	}
	// Two copies plus at least one connecting staircase partition.
	wantMin := 2 * base.NumPartitions()
	if rep.NumPartitions() <= wantMin {
		t.Errorf("replicated partitions = %d, want > %d", rep.NumPartitions(), wantMin)
	}
	if rep.Floors() != 2*base.Floors() {
		t.Errorf("replicated floors = %d, want %d", rep.Floors(), 2*base.Floors())
	}
	if rep.NumDoors() < 2*base.NumDoors() {
		t.Errorf("replicated doors = %d, want >= %d", rep.NumDoors(), 2*base.NumDoors())
	}
	// Replicating once returns an equivalent venue (plus no staircases).
	one, err := Replicate(base, 1, 0)
	if err != nil {
		t.Fatalf("Replicate(1): %v", err)
	}
	if one.NumPartitions() != base.NumPartitions() || one.NumDoors() != base.NumDoors() {
		t.Error("Replicate with 1 copy should preserve size")
	}
	if _, err := Replicate(base, 0, 0); err == nil {
		t.Error("Replicate with 0 copies should fail")
	}
}

func TestReplicateCampusStaysConnected(t *testing.T) {
	campus := MustCampus(CampusConfig{
		Name:      "mini-campus",
		Buildings: 3,
		Building:  BuildingConfig{Floors: 1, RoomsPerHallway: 5},
		Seed:      11,
	})
	rep := MustReplicate(campus, 2, 0)
	if !rep.D2D().Graph.Connected() {
		t.Fatal("replicated campus must remain connected")
	}
}

func TestPresetsTinyAndSmall(t *testing.T) {
	presets := []struct {
		name string
		gen  func(Scale) *model.Venue
	}{
		{"MC", MelbourneCentral},
		{"Men", Menzies},
		{"CL", Clayton},
	}
	for _, p := range presets {
		for _, s := range []Scale{ScaleTiny, ScaleSmall} {
			v := p.gen(s)
			if !v.D2D().Graph.Connected() {
				t.Errorf("%s scale %d: disconnected", p.name, s)
			}
			if v.NumDoors() == 0 {
				t.Errorf("%s scale %d: empty", p.name, s)
			}
		}
		tiny := p.gen(ScaleTiny)
		small := p.gen(ScaleSmall)
		if small.NumDoors() <= tiny.NumDoors() {
			t.Errorf("%s: small (%d doors) should exceed tiny (%d doors)", p.name, small.NumDoors(), tiny.NumDoors())
		}
	}
}

func TestNamedVenues(t *testing.T) {
	if len(Names) != 6 {
		t.Errorf("Names has %d venues, want the paper's six: %v", len(Names), Names)
	}
	for _, name := range Names {
		v, err := Named(name, ScaleTiny)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if !v.D2D().Graph.Connected() {
			t.Errorf("%s: disconnected", name)
		}
		if base, ok := strings.CutSuffix(name, "-2"); ok {
			b, err := Named(base, ScaleTiny)
			if err != nil {
				t.Fatalf("Named(%q): %v", base, err)
			}
			if v.Floors() != 2*b.Floors() {
				t.Errorf("%s: %d floors, want twice the %d of %s", name, v.Floors(), b.Floors(), base)
			}
		}
	}
}

func TestNamedRejectsUnknownNames(t *testing.T) {
	if v, err := Named("nope", ScaleTiny); err == nil || v != nil {
		t.Fatalf("Named(nope) = %v, %v; want an error", v, err)
	} else if !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("error %q does not name the venue", err)
	}
	for name, want := range map[string]Scale{"tiny": ScaleTiny, "small": ScaleSmall, "full": ScaleFull} {
		if got, err := ParseScale(name); err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale(huge) accepted an unknown scale")
	}
}

func TestMenziesSmallHasHallwayFanout(t *testing.T) {
	v := Menzies(ScaleSmall)
	s := v.ComputeStats()
	// The defining property of indoor D2D graphs (Section 1.2.1): large
	// out-degree due to hallway partitions with many doors.
	if s.MaxOutDegree < 20 {
		t.Errorf("MaxOutDegree = %d, expected hallway fan-out >= 20", s.MaxOutDegree)
	}
	if s.Hallways == 0 {
		t.Error("expected hallway partitions")
	}
}

func TestPaperExample(t *testing.T) {
	v := PaperExample()
	if v.NumPartitions() != 17 {
		t.Errorf("partitions = %d, want 17", v.NumPartitions())
	}
	if v.NumDoors() != 20 {
		t.Errorf("doors = %d, want 20", v.NumDoors())
	}
	if !v.D2D().Graph.Connected() {
		t.Error("paper example must be connected")
	}
	s := v.ComputeStats()
	if s.Hallways != 4 {
		t.Errorf("hallways = %d, want 4", s.Hallways)
	}
	// Ground truth sanity: distance between random locations is finite and
	// symmetric.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		a := v.RandomLocation(rng)
		c := v.RandomLocation(rng)
		d1 := v.D2D().LocationDist(a, c)
		d2 := v.D2D().LocationDist(c, a)
		if d1 < 0 {
			t.Fatalf("negative distance %v", d1)
		}
		if diff := d1 - d2; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("asymmetric distance: %v vs %v", d1, d2)
		}
	}
}

func TestPresetFullStatsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale presets are slow")
	}
	// Only MC at full scale: it is small enough for a unit test and checks
	// that the preset tracks Table 2 of the paper.
	v := MelbourneCentral(ScaleFull)
	s := v.ComputeStats()
	if s.Partitions < 250 || s.Partitions > 400 {
		t.Errorf("MC rooms = %d, want ~297", s.Partitions)
	}
	if s.Floors != 7 {
		t.Errorf("MC floors = %d, want 7", s.Floors)
	}
	if s.D2DEdges < 5000 || s.D2DEdges > 15000 {
		t.Errorf("MC edges = %d, want ~8,500", s.D2DEdges)
	}
}
