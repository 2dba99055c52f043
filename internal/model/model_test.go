package model

import (
	"math"
	"math/rand"
	"testing"

	"viptree/internal/geom"
)

// buildOfficeFloor constructs a small single-floor office: a hallway with
// six rooms attached plus one exterior entrance door.
//
//	+----+----+----+
//	| R1 | R2 | R3 |
//	+-d1-+-d2-+-d3-+
//	|   hallway    |--d0 (exterior)
//	+-d4-+-d5-+-d6-+
//	| R4 | R5 | R6 |
//	+----+----+----+
func buildOfficeFloor(t *testing.T) (*Venue, map[string]PartitionID, map[string]DoorID) {
	t.Helper()
	b := NewBuilder("office-floor")
	parts := map[string]PartitionID{}
	doors := map[string]DoorID{}
	hall := b.AddPartition("hallway", ClassHallway, geom.NewRect(0, 10, 30, 14, 0), 0)
	parts["hall"] = hall
	roomCoords := []struct {
		name string
		rect geom.Rect
		door geom.Point
	}{
		{"R1", geom.NewRect(0, 14, 10, 20, 0), geom.Point{X: 5, Y: 14, Floor: 0}},
		{"R2", geom.NewRect(10, 14, 20, 20, 0), geom.Point{X: 15, Y: 14, Floor: 0}},
		{"R3", geom.NewRect(20, 14, 30, 20, 0), geom.Point{X: 25, Y: 14, Floor: 0}},
		{"R4", geom.NewRect(0, 4, 10, 10, 0), geom.Point{X: 5, Y: 10, Floor: 0}},
		{"R5", geom.NewRect(10, 4, 20, 10, 0), geom.Point{X: 15, Y: 10, Floor: 0}},
		{"R6", geom.NewRect(20, 4, 30, 10, 0), geom.Point{X: 25, Y: 10, Floor: 0}},
	}
	for _, rc := range roomCoords {
		pid := b.AddPartition(rc.name, ClassRoom, rc.rect, 0)
		parts[rc.name] = pid
		did := b.AddDoor("door-"+rc.name, rc.door, pid, hall)
		doors[rc.name] = did
	}
	doors["entrance"] = b.AddDoor("entrance", geom.Point{X: 30, Y: 12, Floor: 0}, hall, NoPartition)
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return v, parts, doors
}

func TestBuilderBasicTopology(t *testing.T) {
	v, parts, doors := buildOfficeFloor(t)
	if v.NumPartitions() != 7 {
		t.Errorf("NumPartitions = %d, want 7", v.NumPartitions())
	}
	if v.NumDoors() != 7 {
		t.Errorf("NumDoors = %d, want 7", v.NumDoors())
	}
	hall := v.Partition(parts["hall"])
	if len(hall.Doors) != 7 {
		t.Errorf("hallway has %d doors, want 7", len(hall.Doors))
	}
	// Kinds: hallway has 7 doors (> β=4) => hallway; rooms have 1 door =>
	// no-through.
	if k := v.Kind(parts["hall"]); k != KindHallway {
		t.Errorf("hallway kind = %v, want hallway", k)
	}
	if k := v.Kind(parts["R1"]); k != KindNoThrough {
		t.Errorf("R1 kind = %v, want no-through", k)
	}
	// The entrance door is exterior: only one partition.
	ent := v.Door(doors["entrance"])
	if len(ent.Partitions) != 1 {
		t.Errorf("entrance door partitions = %v, want 1 entry", ent.Partitions)
	}
	if ent.OtherPartition(parts["hall"]) != NoPartition {
		t.Error("entrance door should have no other partition")
	}
	// Door-partition navigation.
	d1 := v.Door(doors["R1"])
	if !d1.ConnectsPartition(parts["R1"]) || !d1.ConnectsPartition(parts["hall"]) {
		t.Error("door-R1 should connect R1 and hallway")
	}
	if d1.OtherPartition(parts["R1"]) != parts["hall"] {
		t.Error("OtherPartition(R1) should be hallway")
	}
	if d1.OtherPartition(parts["R2"]) != NoPartition {
		t.Error("OtherPartition of unrelated partition should be NoPartition")
	}
}

func TestKindClassification(t *testing.T) {
	b := NewBuilder("kinds").AllowDisconnected()
	// Partition with 2 doors: general. With 5 doors (β=4): hallway.
	p2 := b.AddPartition("two-door", ClassRoom, geom.NewRect(0, 0, 5, 5, 0), 0)
	p5 := b.AddPartition("five-door", ClassHallway, geom.NewRect(10, 0, 30, 5, 0), 0)
	other := b.AddPartition("other", ClassRoom, geom.NewRect(0, 10, 30, 15, 0), 0)
	b.AddDoor("a", geom.Point{X: 1, Y: 5, Floor: 0}, p2, other)
	b.AddDoor("b", geom.Point{X: 4, Y: 5, Floor: 0}, p2, other)
	for i := 0; i < 5; i++ {
		b.AddDoor("h", geom.Point{X: 11 + float64(i)*2, Y: 5, Floor: 0}, p5, other)
	}
	v, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if k := v.Kind(p2); k != KindGeneral {
		t.Errorf("two-door kind = %v, want general", k)
	}
	if k := v.Kind(p5); k != KindHallway {
		t.Errorf("five-door kind = %v, want hallway", k)
	}
	if k := v.Kind(other); k != KindHallway {
		t.Errorf("other (7 doors) kind = %v, want hallway", k)
	}
}

func TestHallwayThresholdOverride(t *testing.T) {
	b := NewBuilder("beta").SetHallwayThreshold(10).AllowDisconnected()
	p := b.AddPartition("p", ClassHallway, geom.NewRect(0, 0, 10, 10, 0), 0)
	q := b.AddPartition("q", ClassRoom, geom.NewRect(0, 10, 10, 20, 0), 0)
	for i := 0; i < 6; i++ {
		b.AddDoor("d", geom.Point{X: float64(i), Y: 10, Floor: 0}, p, q)
	}
	v := b.MustBuild()
	if k := v.Kind(p); k != KindGeneral {
		t.Errorf("with β=10, a 6-door partition should be general, got %v", k)
	}
}

func TestBuilderValidation(t *testing.T) {
	t.Run("door references unknown partition", func(t *testing.T) {
		b := NewBuilder("bad")
		b.AddDoor("d", geom.Point{}, PartitionID(3), NoPartition)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for unknown partition reference")
		}
	})
	t.Run("partition with no doors", func(t *testing.T) {
		b := NewBuilder("bad")
		b.AddPartition("lonely", ClassRoom, geom.NewRect(0, 0, 1, 1, 0), 0)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for partition with no doors")
		}
	})
	t.Run("door referencing same partition twice", func(t *testing.T) {
		b := NewBuilder("bad")
		p := b.AddPartition("p", ClassRoom, geom.NewRect(0, 0, 1, 1, 0), 0)
		b.AddDoor("d", geom.Point{}, p, p)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for duplicate partition reference")
		}
	})
	t.Run("outdoor edge to unknown door", func(t *testing.T) {
		b := NewBuilder("bad")
		p := b.AddPartition("p", ClassRoom, geom.NewRect(0, 0, 1, 1, 0), 0)
		d := b.AddDoor("d", geom.Point{}, p, NoPartition)
		b.AddOutdoorEdge(d, DoorID(99), 5)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for outdoor edge to unknown door")
		}
	})
	t.Run("disconnected venue rejected", func(t *testing.T) {
		b := NewBuilder("bad")
		p := b.AddPartition("p", ClassRoom, geom.NewRect(0, 0, 1, 1, 0), 0)
		q := b.AddPartition("q", ClassRoom, geom.NewRect(5, 5, 6, 6, 0), 0)
		b.AddDoor("dp", geom.Point{}, p, NoPartition)
		b.AddDoor("dq", geom.Point{X: 5}, q, NoPartition)
		if _, err := b.Build(); err == nil {
			t.Error("expected error for disconnected D2D graph")
		}
	})
	t.Run("disconnected allowed when requested", func(t *testing.T) {
		b := NewBuilder("ok").AllowDisconnected()
		p := b.AddPartition("p", ClassRoom, geom.NewRect(0, 0, 1, 1, 0), 0)
		q := b.AddPartition("q", ClassRoom, geom.NewRect(5, 5, 6, 6, 0), 0)
		b.AddDoor("dp", geom.Point{}, p, NoPartition)
		b.AddDoor("dq", geom.Point{X: 5}, q, NoPartition)
		if _, err := b.Build(); err != nil {
			t.Errorf("unexpected error: %v", err)
		}
	})
}

func TestD2DGraphStructure(t *testing.T) {
	v, _, doors := buildOfficeFloor(t)
	g := v.D2D().Graph
	// The hallway has 7 doors, fully connected: 21 edges. Rooms contribute
	// no extra edges (single door each).
	if got := g.NumEdges(); got != 21 {
		t.Errorf("D2D edges = %d, want 21", got)
	}
	// Direct edge weight between adjacent hallway doors equals the planar
	// distance between the door locations.
	w, ok := g.EdgeWeight(int(doors["R1"]), int(doors["R2"]))
	if !ok {
		t.Fatal("expected edge R1-R2 doors")
	}
	wantW := v.Door(doors["R1"]).Loc.PlanarDist(v.Door(doors["R2"]).Loc)
	if math.Abs(w-wantW) > 1e-9 {
		t.Errorf("edge weight = %v, want %v", w, wantW)
	}
}

func TestAdjacentPartitionsAndCommonDoors(t *testing.T) {
	v, parts, _ := buildOfficeFloor(t)
	adj := v.AdjacentPartitions(parts["hall"])
	if len(adj) != 6 {
		t.Errorf("hallway adjacency = %v, want 6 rooms", adj)
	}
	adjR1 := v.AdjacentPartitions(parts["R1"])
	if len(adjR1) != 1 || adjR1[0] != parts["hall"] {
		t.Errorf("R1 adjacency = %v, want [hall]", adjR1)
	}
	common := v.CommonDoors(parts["R1"], parts["hall"])
	if len(common) != 1 {
		t.Errorf("common doors R1-hall = %v, want 1", common)
	}
	if len(v.CommonDoors(parts["R1"], parts["R2"])) != 0 {
		t.Error("R1 and R2 should share no door")
	}
}

func TestTraversalCostOverridesDistance(t *testing.T) {
	b := NewBuilder("stairs")
	f0 := b.AddPartition("hall-0", ClassHallway, geom.NewRect(0, 0, 20, 4, 0), 0)
	f1 := b.AddPartition("hall-1", ClassHallway, geom.NewRect(0, 0, 20, 4, 1), 0)
	stairs := b.AddPartition("stairs", ClassStaircase, geom.NewRect(20, 0, 24, 4, 0), 7.5)
	d0 := b.AddDoor("s0", geom.Point{X: 20, Y: 2, Floor: 0}, f0, stairs)
	d1 := b.AddDoor("s1", geom.Point{X: 20, Y: 2, Floor: 1}, f1, stairs)
	b.AddDoor("r0", geom.Point{X: 0, Y: 2, Floor: 0}, f0, NoPartition)
	b.AddDoor("r1", geom.Point{X: 0, Y: 2, Floor: 1}, f1, NoPartition)
	v := b.MustBuild()
	if got := v.IntraPartitionDist(stairs, d0, d1); got != 7.5 {
		t.Errorf("stairs traversal = %v, want 7.5", got)
	}
	// D2D distance between the two far doors crosses the stairs.
	got := v.D2D().Dist(DoorID(2), DoorID(3))
	want := 20.0 + 7.5 + 20.0
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cross-floor distance = %v, want %v", got, want)
	}
}

func TestLocationDistSamePartition(t *testing.T) {
	v, parts, _ := buildOfficeFloor(t)
	s := Location{Partition: parts["R1"], Point: geom.Point{X: 1, Y: 15, Floor: 0}}
	u := Location{Partition: parts["R1"], Point: geom.Point{X: 4, Y: 19, Floor: 0}}
	got := v.D2D().LocationDist(s, u)
	want := s.Point.PlanarDist(u.Point)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("same-partition dist = %v, want %v", got, want)
	}
}

func TestLocationDistAcrossPartitions(t *testing.T) {
	v, parts, doors := buildOfficeFloor(t)
	s := Location{Partition: parts["R1"], Point: geom.Point{X: 5, Y: 16, Floor: 0}}
	u := Location{Partition: parts["R6"], Point: geom.Point{X: 25, Y: 8, Floor: 0}}
	got := v.D2D().LocationDist(s, u)
	// Path must pass R1's door then R6's door.
	d1 := v.Door(doors["R1"]).Loc
	d6 := v.Door(doors["R6"]).Loc
	want := s.Point.PlanarDist(d1) + d1.PlanarDist(d6) + d6.PlanarDist(u.Point)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("cross-partition dist = %v, want %v", got, want)
	}
	// Path variant agrees and starts/ends at the right doors.
	pd, path := v.D2D().LocationPath(s, u)
	if math.Abs(pd-got) > 1e-9 {
		t.Errorf("LocationPath dist = %v, want %v", pd, got)
	}
	if len(path) != 2 || path[0] != doors["R1"] || path[1] != doors["R6"] {
		t.Errorf("path = %v, want [door-R1 door-R6]", path)
	}
}

func TestComputeStats(t *testing.T) {
	v, _, _ := buildOfficeFloor(t)
	s := v.ComputeStats()
	if s.Doors != 7 || s.Partitions != 7 || s.D2DEdges != 21 {
		t.Errorf("stats = %+v", s)
	}
	if s.Floors != 1 {
		t.Errorf("Floors = %d, want 1", s.Floors)
	}
	if s.Hallways != 1 || s.NoThrough != 6 {
		t.Errorf("hallways = %d no-through = %d", s.Hallways, s.NoThrough)
	}
	if s.MaxOutDegree != 6 {
		t.Errorf("MaxOutDegree = %d, want 6", s.MaxOutDegree)
	}
	if s.String() == "" {
		t.Error("Stats.String should not be empty")
	}
}

func TestRandomLocation(t *testing.T) {
	v, _, _ := buildOfficeFloor(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		loc := v.RandomLocation(rng)
		p := v.Partition(loc.Partition)
		if !p.Bounds.Contains(loc.Point) {
			t.Fatalf("random location %v outside partition bounds %v", loc, p.Bounds)
		}
	}
}

func TestCentroid(t *testing.T) {
	v, parts, _ := buildOfficeFloor(t)
	c := v.Centroid(parts["R1"])
	if c.Partition != parts["R1"] {
		t.Error("centroid partition mismatch")
	}
	if !v.Partition(parts["R1"]).Bounds.Contains(c.Point) {
		t.Error("centroid should be inside the partition")
	}
}

func TestDistToDoorWithTraversalCost(t *testing.T) {
	b := NewBuilder("lift")
	h0 := b.AddPartition("h0", ClassHallway, geom.NewRect(0, 0, 10, 4, 0), 0)
	h1 := b.AddPartition("h1", ClassHallway, geom.NewRect(0, 0, 10, 4, 1), 0)
	lift := b.AddPartition("lift", ClassLift, geom.NewRect(10, 0, 12, 4, 0), 10)
	l0 := b.AddDoor("l0", geom.Point{X: 10, Y: 2, Floor: 0}, h0, lift)
	b.AddDoor("l1", geom.Point{X: 10, Y: 2, Floor: 1}, h1, lift)
	v := b.MustBuild()
	loc := Location{Partition: lift, Point: v.Partition(lift).Bounds.Center()}
	if got := v.DistToDoor(loc, l0); got != 5 {
		t.Errorf("DistToDoor inside lift = %v, want TraversalCost/2 = 5", got)
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{ClassRoom, ClassHallway, ClassStaircase, ClassLift, ClassEscalator, Class(99)} {
		if c.String() == "" {
			t.Errorf("Class(%d).String is empty", int(c))
		}
	}
	for _, k := range []Kind{KindNoThrough, KindGeneral, KindHallway, Kind(99)} {
		if k.String() == "" {
			t.Errorf("Kind(%d).String is empty", int(k))
		}
	}
	if (Location{}).String() == "" {
		t.Error("Location.String is empty")
	}
}
