package iptree

import (
	"math/rand"
	"testing"

	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// crossLeafPairs returns query pairs whose endpoints lie in different leaves
// of the tree — the indexed hot path of Algorithm 3 / Section 3.1.2 (same-
// partition and same-leaf queries are answered by direct computation or
// from the leaf's door table instead).
func crossLeafPairs(t *Tree, v *model.Venue, n int, seed int64) [][2]model.Location {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]model.Location
	for attempts := 0; len(out) < n && attempts < 10000; attempts++ {
		s, d := v.RandomLocation(rng), v.RandomLocation(rng)
		if t.Leaf(s.Partition) != t.Leaf(d.Partition) {
			out = append(out, [2]model.Location{s, d})
		}
	}
	return out
}

// sameLeafPairs returns query pairs whose endpoints lie in different
// partitions of one leaf: the pairs answered from the leaf's door table,
// whose Path returns a non-empty door slice.
func sameLeafPairs(t *Tree, v *model.Venue, n int, seed int64) [][2]model.Location {
	rng := rand.New(rand.NewSource(seed))
	var out [][2]model.Location
	for attempts := 0; len(out) < n && attempts < 100000; attempts++ {
		s, d := v.RandomLocation(rng), v.RandomLocation(rng)
		if s.Partition != d.Partition && t.Leaf(s.Partition) == t.Leaf(d.Partition) {
			out = append(out, [2]model.Location{s, d})
		}
	}
	return out
}

// TestVIPDistanceZeroAlloc is the allocation-regression test for the warm
// VIP-Tree Distance path: once the scratch free list is warm, cross-leaf distance
// queries must not allocate at all.
func TestVIPDistanceZeroAlloc(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	vt := MustBuildVIPTree(v, Options{})
	pairs := crossLeafPairs(vt.Tree, v, 32, 2)
	if len(pairs) == 0 {
		t.Skip("no cross-leaf pairs in this venue")
	}
	// Warm the scratch free list across all pairs before measuring.
	for _, p := range pairs {
		vt.Distance(p[0], p[1])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		vt.Distance(p[0], p[1])
	})
	if allocs != 0 {
		t.Errorf("warm VIP-Tree Distance allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestVIPDistanceZeroAllocAnyPair extends the zero-alloc guarantee to
// arbitrary location pairs: the same-partition and same-leaf answers (a
// direct computation and a read of the leaf's door table, whose first use
// builds it during the warm-up) must not allocate either.
func TestVIPDistanceZeroAllocAnyPair(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-any", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	vt := MustBuildVIPTree(v, Options{})
	rng := rand.New(rand.NewSource(4))
	pairs := make([][2]model.Location, 64)
	for i := range pairs {
		pairs[i] = [2]model.Location{v.RandomLocation(rng), v.RandomLocation(rng)}
	}
	for _, p := range pairs {
		vt.Distance(p[0], p[1])
	}
	i := 0
	allocs := testing.AllocsPerRun(300, func() {
		p := pairs[i%len(pairs)]
		i++
		vt.Distance(p[0], p[1])
	})
	if allocs != 0 {
		t.Errorf("warm VIP-Tree Distance (mixed pairs) allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestIPDistanceZeroAlloc asserts the same property for the plain IP-Tree
// Distance path, which shares the recycled dense scratch.
func TestIPDistanceZeroAlloc(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-ip", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	tree := MustBuildIPTree(v, Options{})
	pairs := crossLeafPairs(tree, v, 32, 2)
	if len(pairs) == 0 {
		t.Skip("no cross-leaf pairs in this venue")
	}
	for _, p := range pairs {
		tree.Distance(p[0], p[1])
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		tree.Distance(p[0], p[1])
	})
	if allocs != 0 {
		t.Errorf("warm IP-Tree Distance allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestIPPathAllocsResultSliceOnly is the allocation-regression test for the
// warm IP-Tree Path hot path: the via-chain unwind, the partial path, the
// iterative Algorithm-4 expansion and the same-leaf in-leaf search all run
// on recycled scratch buffers (pathScratch), so the only allocation of a
// warm cross-leaf or same-leaf query is the returned door slice.
func TestIPPathAllocsResultSliceOnly(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-path", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	tree := MustBuildIPTree(v, Options{})
	pairs := crossLeafPairs(tree, v, 32, 2)
	same := sameLeafPairs(tree, v, 32, 3)
	if len(pairs) == 0 || len(same) == 0 {
		t.Skip("no cross-leaf or no same-leaf pairs in this venue")
	}
	pairs = append(pairs, same...)
	for _, p := range pairs {
		if _, doors := tree.Path(p[0], p[1]); len(doors) == 0 {
			t.Fatal("Path returned no doors; venue unsuitable for the alloc test")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		tree.Path(p[0], p[1])
	})
	if allocs > 1 {
		t.Errorf("warm IP-Tree Path allocates %.1f allocs/op, want <= 1 (the result slice)", allocs)
	}
}

// TestVIPPathAllocsResultSliceOnly asserts the same property for the
// VIP-Tree Path, whose per-door next-hop expansion and same-leaf in-leaf
// search share the recycled buffers.
func TestVIPPathAllocsResultSliceOnly(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-path-vip", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	vt := MustBuildVIPTree(v, Options{})
	pairs := crossLeafPairs(vt.Tree, v, 32, 2)
	same := sameLeafPairs(vt.Tree, v, 32, 3)
	if len(pairs) == 0 || len(same) == 0 {
		t.Skip("no cross-leaf or no same-leaf pairs in this venue")
	}
	pairs = append(pairs, same...)
	for _, p := range pairs {
		if _, doors := vt.Path(p[0], p[1]); len(doors) == 0 {
			t.Fatal("Path returned no doors; venue unsuitable for the alloc test")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		i++
		vt.Path(p[0], p[1])
	})
	if allocs > 1 {
		t.Errorf("warm VIP-Tree Path allocates %.1f allocs/op, want <= 1 (the result slice)", allocs)
	}
}

// TestKNNAllocsResultSliceOnly is the allocation-regression test for the
// warm kNN path (Algorithm 5): once the scratch free lists are warm, the only
// allocation of a query is the returned result slice — the traversal's
// node-distance cache, priority queue, per-object marks and result
// accumulator all live in recycled epoch-stamped dense scratch.
func TestKNNAllocsResultSliceOnly(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-knn", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	vt := MustBuildVIPTree(v, Options{})
	rng := rand.New(rand.NewSource(3))
	objs := make([]model.Location, 60)
	for i := range objs {
		objs[i] = v.RandomLocation(rng)
	}
	oi := vt.IndexObjects(objs)
	points := make([]model.Location, 64)
	for i := range points {
		points[i] = v.RandomLocation(rng)
	}
	for _, q := range points {
		if len(oi.KNN(q, 5)) == 0 {
			t.Fatal("kNN returned no results; venue/objects unsuitable for the alloc test")
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := points[i%len(points)]
		i++
		oi.KNN(q, 5)
	})
	if allocs > 1 {
		t.Errorf("warm KNN allocates %.1f allocs/op, want <= 1 (the result slice)", allocs)
	}
}

// TestRangeAllocsResultSliceOnly asserts the same property for range
// queries, which share the branch-and-bound traversal.
func TestRangeAllocsResultSliceOnly(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "alloc-range", Floors: 4, RoomsPerHallway: 16, Seed: 1,
	})
	vt := MustBuildVIPTree(v, Options{})
	rng := rand.New(rand.NewSource(5))
	objs := make([]model.Location, 60)
	for i := range objs {
		objs[i] = v.RandomLocation(rng)
	}
	oi := vt.IndexObjects(objs)
	points := make([]model.Location, 64)
	for i := range points {
		points[i] = v.RandomLocation(rng)
	}
	for _, q := range points {
		oi.Range(q, 200)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		q := points[i%len(points)]
		i++
		oi.Range(q, 200)
	})
	if allocs > 1 {
		t.Errorf("warm Range allocates %.1f allocs/op, want <= 1 (the result slice)", allocs)
	}
}

// TestSameLeafMoveAllocs pins the allocation count of a warm sequential Move
// that stays inside one leaf (Menzies full, 250 objects): the copy-on-write
// clone of the touched leaf (its struct, ID and location lists, list
// headers and one access list per access door: 4 + |AD|) and the published
// epoch with its leafData spine (2). The update log's round buffers are
// reused across calls, so the log adds nothing. Under the race detector
// sync.Pool drops a quarter of its items, so a recycled request is
// reallocated (2 allocs) about every fourth Move; AllocsPerRun's integer
// average absorbs that half allocation.
func TestSameLeafMoveAllocs(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleFull)
	vt := MustBuildVIPTree(v, Options{})
	objs := randomObjects(v, 250, 5)
	oi := vt.IndexObjects(objs)
	leaf := vt.Leaf(objs[0].Partition)
	rng := rand.New(rand.NewSource(6))
	var locs []model.Location
	for len(locs) < 64 {
		if l := v.RandomLocation(rng); vt.Leaf(l.Partition) == leaf {
			locs = append(locs, l)
		}
	}
	i := 0
	move := func() {
		if err := oi.Move(0, locs[i%len(locs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Let the leaf lists reach their steady-state capacity first.
	for range 256 {
		move()
	}
	ads := len(vt.nodes[leaf].AccessDoors)
	budget := float64(6 + ads)
	allocs := testing.AllocsPerRun(1000, move)
	if allocs > budget {
		t.Errorf("warm same-leaf Move allocates %.0f allocs/op, want <= %.0f (6 + %d access doors)", allocs, budget, ads)
	}
	t.Logf("warm same-leaf Move: %.0f allocs/op in a leaf with %d access doors", allocs, ads)
}
