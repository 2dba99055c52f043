package iptree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"viptree/internal/bench"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// testVenues returns the venues used across the correctness tests.
func testVenues(t *testing.T) map[string]*model.Venue {
	t.Helper()
	return map[string]*model.Venue{
		"paper-example": venuegen.PaperExample(),
		"mc-tiny":       venuegen.MelbourneCentral(venuegen.ScaleTiny),
		"men-tiny":      venuegen.Menzies(venuegen.ScaleTiny),
		"campus-tiny":   venuegen.Clayton(venuegen.ScaleTiny),
		"office-dd": venuegen.MustBuilding(venuegen.BuildingConfig{
			Name: "office-dd", Floors: 3, HallwaysPerFloor: 2, RoomsPerHallway: 12,
			DoubleDoorFraction: 0.4, Staircases: 1, Lifts: 1, Seed: 99,
		}),
	}
}

func approxEqual(a, b float64) bool {
	if a == Infinite || b == Infinite {
		return a == b
	}
	diff := math.Abs(a - b)
	return diff <= 1e-6 || diff <= 1e-6*math.Max(math.Abs(a), math.Abs(b))
}

func TestTreeStructuralInvariants(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			// Every partition maps to exactly one leaf, and that leaf lists it.
			for p := 0; p < v.NumPartitions(); p++ {
				leaf := tree.Leaf(model.PartitionID(p))
				node := tree.Node(leaf)
				if !node.IsLeaf() {
					t.Fatalf("partition %d maps to non-leaf node %d", p, leaf)
				}
				found := false
				for _, q := range node.Partitions {
					if q == model.PartitionID(p) {
						found = true
					}
				}
				if !found {
					t.Fatalf("leaf %d does not list partition %d", leaf, p)
				}
			}
			// Rule ii: no leaf contains two hallway partitions.
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				if !n.IsLeaf() {
					continue
				}
				hallways := 0
				for _, p := range n.Partitions {
					if v.Kind(p) == model.KindHallway {
						hallways++
					}
				}
				if hallways > 1 {
					t.Errorf("leaf %d contains %d hallways", i, hallways)
				}
			}
			// Parent/child consistency and level monotonicity.
			root := tree.Root()
			if tree.Node(root).Parent != invalidNode {
				t.Error("root must have no parent")
			}
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				for _, c := range n.Children {
					if tree.Node(c).Parent != n.ID {
						t.Errorf("child %d of node %d has parent %d", c, n.ID, tree.Node(c).Parent)
					}
					if tree.Node(c).Level >= n.Level {
						t.Errorf("child %d level %d >= parent %d level %d", c, tree.Node(c).Level, n.ID, n.Level)
					}
				}
				if n.ID != root && !tree.IsAncestor(root, n.ID) {
					t.Errorf("node %d is not reachable from the root", n.ID)
				}
			}
			// Access doors of a parent are access doors of at least one child.
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				if n.IsLeaf() {
					continue
				}
				childAccess := map[model.DoorID]bool{}
				for _, c := range n.Children {
					for _, d := range tree.Node(c).AccessDoors {
						childAccess[d] = true
					}
				}
				for _, d := range n.AccessDoors {
					if !childAccess[d] {
						t.Errorf("access door %d of node %d is not an access door of any child", d, n.ID)
					}
				}
			}
			// Minimum degree: every non-root internal node has >= 2 children.
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				if !n.IsLeaf() && n.ID != root && len(n.Children) < 2 {
					t.Errorf("internal node %d has %d children", n.ID, len(n.Children))
				}
			}
			// Stats are sane.
			s := tree.TreeStats()
			if s.Leaves == 0 || s.Nodes < s.Leaves || s.Height < 1 {
				t.Errorf("implausible stats: %+v", s)
			}
			if tree.MemoryBytes() <= 0 {
				t.Error("MemoryBytes should be positive")
			}
		})
	}
}

func TestLeafMatrixAgainstDijkstra(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			d2d := v.D2D()
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				if !n.IsLeaf() {
					continue
				}
				for _, d := range tree.DoorsOfLeaf(n.ID) {
					for _, a := range n.AccessDoors {
						got := n.Matrix.Dist(d, a)
						want := d2d.Dist(d, a)
						if !approxEqual(got, want) {
							t.Fatalf("leaf %d matrix dist(%d,%d) = %v, Dijkstra = %v", n.ID, d, a, got, want)
						}
					}
				}
			}
		})
	}
}

func TestNonLeafMatrixAgainstDijkstra(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			d2d := v.D2D()
			for i := 0; i < tree.NumNodes(); i++ {
				n := tree.Node(NodeID(i))
				if n.IsLeaf() || n.Matrix == nil {
					continue
				}
				rows := n.Matrix.Rows()
				for _, a := range rows {
					for _, b := range rows {
						got := n.Matrix.Dist(a, b)
						want := d2d.Dist(a, b)
						if !approxEqual(got, want) {
							t.Fatalf("node %d matrix dist(%d,%d) = %v, Dijkstra = %v", n.ID, a, b, got, want)
						}
					}
				}
			}
		})
	}
}

func TestSuperiorDoorsSubset(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	for p := 0; p < v.NumPartitions(); p++ {
		sup := tree.SuperiorDoors(model.PartitionID(p))
		if len(sup) == 0 {
			t.Errorf("partition %d has no superior doors", p)
		}
		doors := map[model.DoorID]bool{}
		for _, d := range v.Partition(model.PartitionID(p)).Doors {
			doors[d] = true
		}
		for _, d := range sup {
			if !doors[d] {
				t.Errorf("superior door %d is not a door of partition %d", d, p)
			}
		}
	}
}

func TestIPTreeDistanceMatchesGroundTruth(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			d2d := v.D2D()
			rng := rand.New(rand.NewSource(123))
			for i := 0; i < 150; i++ {
				s := v.RandomLocation(rng)
				d := v.RandomLocation(rng)
				got := tree.Distance(s, d)
				want := d2d.LocationDist(s, d)
				if !approxEqual(got, want) {
					t.Fatalf("query %d: Distance(%v,%v) = %v, ground truth = %v", i, s, d, got, want)
				}
			}
		})
	}
}

func TestVIPTreeDistanceMatchesGroundTruth(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			vt := MustBuildVIPTree(v, Options{})
			d2d := v.D2D()
			rng := rand.New(rand.NewSource(321))
			for i := 0; i < 150; i++ {
				s := v.RandomLocation(rng)
				d := v.RandomLocation(rng)
				got := vt.Distance(s, d)
				want := d2d.LocationDist(s, d)
				if !approxEqual(got, want) {
					t.Fatalf("query %d: VIP Distance(%v,%v) = %v, ground truth = %v", i, s, d, got, want)
				}
			}
		})
	}
}

// verifyPath checks that a reported path is a walkable door sequence whose
// total length (plus entry/exit legs) equals the reported distance.
func verifyPath(t *testing.T, v *model.Venue, s, d model.Location, dist float64, doors []model.DoorID) {
	t.Helper()
	want := v.D2D().LocationDist(s, d)
	if !approxEqual(dist, want) {
		t.Fatalf("path distance %v != ground truth %v (s=%v d=%v)", dist, want, s, d)
	}
	if s.Partition == d.Partition {
		return
	}
	if len(doors) == 0 {
		t.Fatalf("expected a non-empty door sequence for %v -> %v", s, d)
	}
	// First and last door must belong to the source/target partitions.
	if !v.Door(doors[0]).ConnectsPartition(s.Partition) {
		t.Fatalf("path must start at a door of the source partition; got door %d", doors[0])
	}
	if !v.Door(doors[len(doors)-1]).ConnectsPartition(d.Partition) {
		t.Fatalf("path must end at a door of the target partition; got door %d", doors[len(doors)-1])
	}
	// Sum the leg lengths: consecutive doors must be connected in the D2D
	// graph (a final edge), and the total must match the distance.
	total, err := walkedLength(v, s, d, doors)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(total, dist) {
		t.Fatalf("path legs sum to %v, reported distance %v (doors %v)", total, dist, doors)
	}
}

// walkedLength sums the legs of a door path from s to d: the walk to the
// first door, the D2D edge between each consecutive pair of doors, and the
// walk from the last door. An empty path is the walk within one partition.
// It fails on an empty path between partitions and on two consecutive
// doors that no D2D edge joins.
func walkedLength(v *model.Venue, s, d model.Location, doors []model.DoorID) (float64, error) {
	if len(doors) == 0 {
		if s.Partition != d.Partition {
			return 0, fmt.Errorf("empty path from partition %d to %d", s.Partition, d.Partition)
		}
		return v.SamePartitionDist(s, d), nil
	}
	g := v.D2D().Graph
	total := v.DistToDoor(s, doors[0])
	for i := 1; i < len(doors); i++ {
		w, ok := g.EdgeWeight(int(doors[i-1]), int(doors[i]))
		if !ok {
			return 0, fmt.Errorf("path contains non-adjacent doors %d -> %d", doors[i-1], doors[i])
		}
		total += w
	}
	return total + v.DistToDoor(d, doors[len(doors)-1]), nil
}

// TestPathDecompositionFallback checks Path over the 2,000 uniform pairs of
// bench.Pairs on CL-2 small. There the VIP-Tree's matrices cannot
// decompose some partial edges, and Path recovers them with the graph
// search of appendFallbackPath (23 of the pairs); the IP-Tree decomposes
// every pair. For both trees, each path walks D2D edges, its length matches
// the distance within 1e-6, and Path's distance equals Distance bit for
// bit.
func TestPathDecompositionFallback(t *testing.T) {
	v, err := venuegen.Named("CL-2", venuegen.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	ip := MustBuildIPTree(v, Options{})
	vt := MustBuildVIPTree(v, Options{})
	pairs := bench.Pairs(v, 2000, 7)
	trees := []struct {
		name     string
		path     func(s, d model.Location) (float64, []model.DoorID)
		distance func(s, d model.Location) float64
	}{
		{"IP-Tree", ip.Path, ip.Distance},
		{"VIP-Tree", vt.Path, vt.Distance},
	}
	for _, tr := range trees {
		t.Run(tr.name, func(t *testing.T) {
			for i, p := range pairs {
				dist, doors := tr.path(p.S, p.T)
				if want := tr.distance(p.S, p.T); math.Float64bits(dist) != math.Float64bits(want) {
					t.Fatalf("pair %d: Path distance %v, Distance %v", i, dist, want)
				}
				if dist == Infinite {
					continue
				}
				walked, err := walkedLength(v, p.S, p.T, doors)
				if err != nil {
					t.Fatalf("pair %d: %v", i, err)
				}
				if math.Abs(walked-dist) > 1e-6 {
					t.Fatalf("pair %d: path walks %v, distance %v (doors %v)", i, walked, dist, doors)
				}
			}
		})
	}
}

func TestIPTreePathMatchesGroundTruth(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			rng := rand.New(rand.NewSource(555))
			for i := 0; i < 80; i++ {
				s := v.RandomLocation(rng)
				d := v.RandomLocation(rng)
				dist, doors := tree.Path(s, d)
				verifyPath(t, v, s, d, dist, doors)
			}
		})
	}
}

func TestVIPTreePathMatchesGroundTruth(t *testing.T) {
	for name, v := range testVenues(t) {
		t.Run(name, func(t *testing.T) {
			vt := MustBuildVIPTree(v, Options{})
			rng := rand.New(rand.NewSource(777))
			for i := 0; i < 80; i++ {
				s := v.RandomLocation(rng)
				d := v.RandomLocation(rng)
				dist, doors := vt.Path(s, d)
				verifyPath(t, v, s, d, dist, doors)
			}
		})
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	vt := MustBuildVIPTree(v, Options{})
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		s := v.RandomLocation(rng)
		d := v.RandomLocation(rng)
		a := vt.Distance(s, d)
		b := vt.Distance(d, s)
		if !approxEqual(a, b) {
			t.Fatalf("asymmetric VIP distance: %v vs %v", a, b)
		}
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	v := venuegen.MelbourneCentral(venuegen.ScaleTiny)
	vt := MustBuildVIPTree(v, Options{})
	rng := rand.New(rand.NewSource(4242))
	for i := 0; i < 60; i++ {
		a := v.RandomLocation(rng)
		b := v.RandomLocation(rng)
		c := v.RandomLocation(rng)
		ab := vt.Distance(a, b)
		bc := vt.Distance(b, c)
		ac := vt.Distance(a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(a,c)=%v > d(a,b)+d(b,c)=%v", ac, ab+bc)
		}
	}
}

func TestSamePartitionAndSameLeafQueries(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	// Same partition.
	s := v.Centroid(0)
	d := model.Location{Partition: 0, Point: s.Point}
	d.Point.X += 2
	want := s.Point.PlanarDist(d.Point)
	if got := tree.Distance(s, d); !approxEqual(got, want) {
		t.Errorf("same-partition IP distance = %v, want %v", got, want)
	}
	if got := vt.Distance(s, d); !approxEqual(got, want) {
		t.Errorf("same-partition VIP distance = %v, want %v", got, want)
	}
	if _, doors := tree.Path(s, d); len(doors) != 0 {
		t.Errorf("same-partition path should have no doors, got %v", doors)
	}
	// Same leaf, different partitions: partitions 0 (hallway P1) and 1 (P2)
	// are in the same leaf by construction.
	if tree.Leaf(0) == tree.Leaf(1) {
		a := v.Centroid(0)
		b := v.Centroid(1)
		want := v.D2D().LocationDist(a, b)
		if got := tree.Distance(a, b); !approxEqual(got, want) {
			t.Errorf("same-leaf IP distance = %v, want %v", got, want)
		}
		if got := vt.Distance(a, b); !approxEqual(got, want) {
			t.Errorf("same-leaf VIP distance = %v, want %v", got, want)
		}
	}

	// Sweep: on every same-leaf pair of a uniform sample (the pairs
	// bench.Pairs draws with seed 11), Path's distance must equal
	// Distance's bit for bit, because Path takes it from Distance's code, and
	// the doors must form a walk between the two locations.
	men := venuegen.Menzies(venuegen.ScaleTiny)
	ip := MustBuildIPTree(men, Options{})
	trees := []interface {
		Distance(s, d model.Location) float64
		Path(s, d model.Location) (float64, []model.DoorID)
	}{ip, NewVIPTree(ip)}
	rng := rand.New(rand.NewSource(11))
	sameLeaf := 0
	for i := 0; i < 4000; i++ {
		a, b := men.RandomLocation(rng), men.RandomLocation(rng)
		if ip.Leaf(a.Partition) != ip.Leaf(b.Partition) {
			continue
		}
		sameLeaf++
		for ti, tr := range trees {
			dist := tr.Distance(a, b)
			pd, doors := tr.Path(a, b)
			if math.Float64bits(pd) != math.Float64bits(dist) {
				t.Fatalf("tree %d pair %d: Path distance %v != Distance %v", ti, i, pd, dist)
			}
			if a.Partition == b.Partition || dist == Infinite {
				if len(doors) != 0 {
					t.Fatalf("tree %d pair %d: doorless path returned doors %v", ti, i, doors)
				}
				continue
			}
			if !doorOf(men, a.Partition, doors[0]) || !doorOf(men, b.Partition, doors[len(doors)-1]) {
				t.Fatalf("tree %d pair %d: path %v does not leave %d and enter %d", ti, i, doors, a.Partition, b.Partition)
			}
		}
	}
	if sameLeaf < 100 {
		t.Fatalf("only %d same-leaf pairs in the sample", sameLeaf)
	}
}

// doorOf reports whether door d belongs to partition p.
func doorOf(v *model.Venue, p model.PartitionID, d model.DoorID) bool {
	for _, pd := range v.Partition(p).Doors {
		if pd == d {
			return true
		}
	}
	return false
}

func TestMinDegreeOptionAffectsTreeShape(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleSmall)
	t2 := MustBuildIPTree(v, Options{MinDegree: 2})
	t4 := MustBuildIPTree(v, Options{MinDegree: 4})
	if t4.Height() > t2.Height() {
		t.Errorf("larger min degree should not increase height: t=2 height %d, t=4 height %d", t2.Height(), t4.Height())
	}
	// Both trees still answer correctly.
	d2d := v.D2D()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		s := v.RandomLocation(rng)
		d := v.RandomLocation(rng)
		want := d2d.LocationDist(s, d)
		if got := t2.Distance(s, d); !approxEqual(got, want) {
			t.Fatalf("t=2 distance mismatch: %v vs %v", got, want)
		}
		if got := t4.Distance(s, d); !approxEqual(got, want) {
			t.Fatalf("t=4 distance mismatch: %v vs %v", got, want)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildIPTree(nil, Options{}); err == nil {
		t.Error("BuildIPTree(nil) should fail")
	}
	if _, err := BuildVIPTree(nil, Options{}); err == nil {
		t.Error("BuildVIPTree(nil) should fail")
	}
}

func TestNames(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	if tree.Name() != "IP-Tree" {
		t.Errorf("IP tree name = %q", tree.Name())
	}
	vt := NewVIPTree(tree)
	if vt.Name() != "VIP-Tree" {
		t.Errorf("VIP tree name = %q", vt.Name())
	}
	if vt.MemoryBytes() <= tree.MemoryBytes() {
		t.Error("VIP-Tree should use more memory than IP-Tree")
	}
	if tree.Venue() != v {
		t.Error("Venue() should return the underlying venue")
	}
}
