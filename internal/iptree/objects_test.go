package iptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"viptree/internal/bench"
	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// bruteForceKNN computes the exact k nearest objects with plain Dijkstra
// expansions; it is the ground truth for the Algorithm 5 tests.
func bruteForceKNN(v *model.Venue, objects []model.Location, q model.Location, k int) []index.ObjectResult {
	return nearest(bruteForceAll(v, objects, q), k)
}

func bruteForceRange(v *model.Venue, objects []model.Location, q model.Location, r float64) []index.ObjectResult {
	return within(bruteForceAll(v, objects, q), r)
}

// nearest and within cut bruteForceAll's sorted answer down to a kNN and a
// range answer, so a test can ask several k and r of one scan.
func nearest(all []index.ObjectResult, k int) []index.ObjectResult {
	return all[:min(k, len(all))]
}

func within(all []index.ObjectResult, r float64) []index.ObjectResult {
	var out []index.ObjectResult
	for _, a := range all {
		if a.Dist <= r {
			out = append(out, a)
		}
	}
	return out
}

// bruteForceAll runs one exact D2D search per object, all on one scratch,
// and returns every object sorted by distance and then ID.
func bruteForceAll(v *model.Venue, objects []model.Location, q model.Location) []index.ObjectResult {
	d2d := v.D2D()
	var sc graph.SearchScratch
	out := make([]index.ObjectResult, 0, len(objects))
	for id, o := range objects {
		d, _ := d2d.LocationSearch(&sc, q, o)
		out = append(out, index.ObjectResult{ObjectID: id, Dist: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	return out
}

func randomObjects(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]model.Location, n)
	for i := range objs {
		objs[i] = v.RandomLocation(rng)
	}
	return objs
}

// sameResultSet compares results by distance (ties may be resolved in any
// order, so exact object IDs are only compared when distances are unique).
func sameResultSet(t *testing.T, got, want []index.ObjectResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count = %d, want %d (got %v, want %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if !approxEqual(got[i].Dist, want[i].Dist) {
			t.Fatalf("result %d distance = %v, want %v (got %v want %v)", i, got[i].Dist, want[i].Dist, got, want)
		}
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	venues := map[string]*model.Venue{
		"paper-example": venuegen.PaperExample(),
		"men-tiny":      venuegen.Menzies(venuegen.ScaleTiny),
		"campus-tiny":   venuegen.Clayton(venuegen.ScaleTiny),
	}
	for name, v := range venues {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			objs := randomObjects(v, 12, 7)
			oi := tree.IndexObjects(objs)
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 40; i++ {
				q := v.RandomLocation(rng)
				for _, k := range []int{1, 3, 5} {
					got := oi.KNN(q, k)
					want := bruteForceKNN(v, objs, q, k)
					sameResultSet(t, got, want)
				}
			}
		})
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	objs := randomObjects(v, 15, 11)
	oi := tree.IndexObjects(objs)
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 40; i++ {
		q := v.RandomLocation(rng)
		for _, r := range []float64{10, 40, 120, 500} {
			got := oi.Range(q, r)
			want := bruteForceRange(v, objs, q, r)
			sameResultSet(t, got, want)
			for _, res := range got {
				if res.Dist > r {
					t.Fatalf("range result %v exceeds radius %v", res, r)
				}
			}
		}
	}
}

func TestKNNOnVIPTree(t *testing.T) {
	// kNN runs identically on a VIP-Tree because the object index works on
	// the shared IP-Tree structure (Section 3.4).
	v := venuegen.PaperExample()
	vt := MustBuildVIPTree(v, Options{})
	objs := randomObjects(v, 8, 3)
	oi := vt.IndexObjects(objs)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 30; i++ {
		q := v.RandomLocation(rng)
		got := oi.KNN(q, 3)
		want := bruteForceKNN(v, objs, q, 3)
		sameResultSet(t, got, want)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(5))
	q := v.RandomLocation(rng)

	t.Run("empty object set", func(t *testing.T) {
		oi := tree.IndexObjects(nil)
		if got := oi.KNN(q, 3); len(got) != 0 {
			t.Errorf("KNN over empty set = %v", got)
		}
		if got := oi.Range(q, 100); len(got) != 0 {
			t.Errorf("Range over empty set = %v", got)
		}
	})
	t.Run("k larger than object count", func(t *testing.T) {
		objs := randomObjects(v, 3, 31)
		oi := tree.IndexObjects(objs)
		got := oi.KNN(q, 10)
		if len(got) != 3 {
			t.Errorf("KNN with k>n returned %d results, want 3", len(got))
		}
	})
	t.Run("k zero", func(t *testing.T) {
		objs := randomObjects(v, 3, 37)
		oi := tree.IndexObjects(objs)
		if got := oi.KNN(q, 0); len(got) != 0 {
			t.Errorf("KNN with k=0 = %v", got)
		}
	})
	t.Run("object colocated with query", func(t *testing.T) {
		objs := []model.Location{q}
		oi := tree.IndexObjects(objs)
		got := oi.KNN(q, 1)
		if len(got) != 1 || !approxEqual(got[0].Dist, 0) {
			t.Errorf("KNN for colocated object = %v", got)
		}
	})
	t.Run("zero radius range", func(t *testing.T) {
		objs := []model.Location{q}
		oi := tree.IndexObjects(objs)
		got := oi.Range(q, 0)
		if len(got) != 1 {
			t.Errorf("Range(0) for colocated object = %v", got)
		}
	})
	t.Run("results sorted ascending", func(t *testing.T) {
		objs := randomObjects(v, 20, 41)
		oi := tree.IndexObjects(objs)
		got := oi.KNN(q, 10)
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatalf("results not sorted: %v", got)
			}
		}
	})
	t.Run("accessors", func(t *testing.T) {
		objs := randomObjects(v, 4, 43)
		oi := tree.IndexObjects(objs)
		if len(oi.Objects()) != 4 {
			t.Error("Objects() length mismatch")
		}
		if oi.Tree() != tree {
			t.Error("Tree() mismatch")
		}
		if oi.MemoryBytes() <= 0 {
			t.Error("MemoryBytes should be positive")
		}
	})
}

func TestKNNManyObjectsClustered(t *testing.T) {
	// Cluster all objects in a single partition far from the query: the
	// best-first search must still return exact results.
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(61))
	far := model.PartitionID(v.NumPartitions() - 1)
	objs := make([]model.Location, 10)
	for i := range objs {
		objs[i] = v.RandomLocationIn(far, rng)
	}
	oi := tree.IndexObjects(objs)
	q := v.Centroid(0)
	got := oi.KNN(q, 5)
	want := bruteForceKNN(v, objs, q, 5)
	sameResultSet(t, got, want)
}

// TestKNNAndRangeInLargestLeaf packs 60 objects into the Menzies full leaf
// with the most doors (109; the venues above keep every leaf at 31 or
// fewer) and checks KNN and Range against the brute-force scan, from
// sources inside that leaf, where the query's own-leaf scan of the door
// table finds every object, and from sources outside it.
func TestKNNAndRangeInLargestLeaf(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleFull)
	vt := MustBuildVIPTree(v, Options{})
	largest := NodeID(-1)
	for n := range vt.nodes {
		node := &vt.nodes[n]
		if node.IsLeaf() && (largest < 0 || len(node.Matrix.rows) > len(vt.nodes[largest].Matrix.rows)) {
			largest = NodeID(n)
		}
	}
	parts := vt.nodes[largest].Partitions
	rng := rand.New(rand.NewSource(29))
	inLeaf := func() model.Location { return v.RandomLocationIn(parts[rng.Intn(len(parts))], rng) }
	objs := make([]model.Location, 60)
	for i := range objs {
		objs[i] = inLeaf()
	}
	oi := vt.IndexObjects(objs)
	for i := 0; i < 12; i++ {
		q := inLeaf()
		if i%4 == 3 {
			q = v.RandomLocation(rng)
		}
		all := bruteForceAll(v, objs, q)
		for _, k := range []int{1, 5, 20} {
			sameResultSet(t, oi.KNN(q, k), nearest(all, k))
		}
		for _, r := range []float64{10, 50, 100} {
			sameResultSet(t, oi.Range(q, r), within(all, r))
		}
	}
}

// TestRangeUnboundedReturnsEachObjectOnce: a Range with an infinite radius
// over the 250 objects of the Menzies full bench fixture returns every
// object exactly once, whichever leaf the query starts in.
func TestRangeUnboundedReturnsEachObjectOnce(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleFull)
	vt := MustBuildVIPTree(v, Options{})
	objs := bench.Objects(v, 250, 7)
	oi := vt.IndexObjects(objs)
	for _, q := range bench.Points(v, 32, 21) {
		got := oi.Range(q, math.Inf(1))
		if len(got) != len(objs) {
			t.Fatalf("Range(%v, +Inf) returned %d results, want %d", q, len(got), len(objs))
		}
		seen := make([]bool, len(objs))
		for _, r := range got {
			if seen[r.ObjectID] {
				t.Fatalf("Range(%v, +Inf) returned object %d twice", q, r.ObjectID)
			}
			seen[r.ObjectID] = true
		}
	}
}
