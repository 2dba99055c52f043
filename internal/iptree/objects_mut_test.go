package iptree

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// This file tests the mutable object layer: Insert/Delete/Move against a
// fresh bulk build (the mutated index must be indistinguishable from one
// built directly over the final object set), the deterministic ObjectID
// tie-break for equidistant objects, and query/update concurrency.

// shadowObjects mirrors the live object set of an index under test: the
// ground truth a fresh bulk build is constructed from.
type shadowObjects map[ObjectID]model.Location

// compactRank maps the (possibly sparse) live IDs of a mutated index to the
// dense 0..n-1 IDs a fresh IndexObjects build assigns, preserving order so
// ObjectID tie-breaks agree between the two.
func (s shadowObjects) compactRank() (map[ObjectID]int, []model.Location) {
	ids := make([]ObjectID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	rank := make(map[ObjectID]int, len(ids))
	locs := make([]model.Location, len(ids))
	for i, id := range ids {
		rank[id] = i
		locs[i] = s[id]
	}
	return rank, locs
}

// mapIDs rewrites the object IDs of a result set through the rank mapping.
func mapIDs(t *testing.T, rs []index.ObjectResult, rank map[ObjectID]int) []index.ObjectResult {
	t.Helper()
	if rs == nil {
		return nil
	}
	out := make([]index.ObjectResult, len(rs))
	for i, r := range rs {
		cid, ok := rank[r.ObjectID]
		if !ok {
			t.Fatalf("result references dead object %d", r.ObjectID)
		}
		out[i] = index.ObjectResult{ObjectID: cid, Dist: r.Dist}
	}
	return out
}

// TestMutatedIndexMatchesFreshBuild is the central property test of the
// mutable object layer: after an arbitrary sequence of Insert/Delete/Move,
// kNN and Range answers must be DeepEqual to those of a fresh IndexObjects
// build over the final object set.
func TestMutatedIndexMatchesFreshBuild(t *testing.T) {
	venues := map[string]*model.Venue{
		"paper-example": venuegen.PaperExample(),
		"men-tiny":      venuegen.Menzies(venuegen.ScaleTiny),
		"campus-tiny":   venuegen.Clayton(venuegen.ScaleTiny),
	}
	for name, v := range venues {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			rng := rand.New(rand.NewSource(101))
			initial := randomObjects(v, 15, 77)
			oi := tree.IndexObjects(initial)
			shadow := shadowObjects{}
			for id, loc := range initial {
				shadow[id] = loc
			}
			for op := 0; op < 400; op++ {
				switch r := rng.Float64(); {
				case r < 0.30 || len(shadow) == 0:
					loc := v.RandomLocation(rng)
					id, err := oi.Insert(loc)
					if err != nil {
						t.Fatalf("op %d: Insert: %v", op, err)
					}
					if _, dup := shadow[id]; dup {
						t.Fatalf("op %d: Insert reused live id %d", op, id)
					}
					shadow[id] = loc
				case r < 0.55:
					id := randomLiveID(rng, shadow)
					if err := oi.Delete(id); err != nil {
						t.Fatalf("op %d: Delete(%d): %v", op, id, err)
					}
					delete(shadow, id)
				default:
					id := randomLiveID(rng, shadow)
					loc := v.RandomLocation(rng)
					if err := oi.Move(id, loc); err != nil {
						t.Fatalf("op %d: Move(%d): %v", op, id, err)
					}
					shadow[id] = loc
				}
			}
			if got := oi.NumObjects(); got != len(shadow) {
				t.Fatalf("NumObjects() = %d, want %d", got, len(shadow))
			}
			rank, locs := shadow.compactRank()
			fresh := tree.IndexObjects(locs)
			for i := 0; i < 40; i++ {
				q := v.RandomLocation(rng)
				for _, k := range []int{1, 3, 8} {
					got := mapIDs(t, oi.KNN(q, k), rank)
					want := fresh.KNN(q, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("KNN(%v, %d) after mutations = %v, fresh build %v", q, k, got, want)
					}
				}
				for _, r := range []float64{25, 120, 600} {
					got := mapIDs(t, oi.Range(q, r), rank)
					want := fresh.Range(q, r)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Range(%v, %v) after mutations = %v, fresh build %v", q, r, got, want)
					}
				}
			}
		})
	}
}

func randomLiveID(rng *rand.Rand, shadow shadowObjects) ObjectID {
	ids := make([]ObjectID, 0, len(shadow))
	for id := range shadow {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids[rng.Intn(len(ids))]
}

// TestObjectUpdateErrors pins down the error behaviour of the update
// operations.
func TestObjectUpdateErrors(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(9))
	oi := tree.IndexObjects(randomObjects(v, 3, 5))

	if err := oi.Delete(99); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Delete(unallocated) = %v, want ErrNoSuchObject", err)
	}
	if err := oi.Move(-1, v.RandomLocation(rng)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Move(-1) = %v, want ErrNoSuchObject", err)
	}
	if err := oi.Delete(1); err != nil {
		t.Fatalf("Delete(1): %v", err)
	}
	if err := oi.Delete(1); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("double Delete = %v, want ErrNoSuchObject", err)
	}
	if err := oi.Move(1, v.RandomLocation(rng)); !errors.Is(err, ErrNoSuchObject) {
		t.Errorf("Move(deleted) = %v, want ErrNoSuchObject", err)
	}
	bad := model.Location{Partition: model.PartitionID(v.NumPartitions() + 3)}
	if _, err := oi.Insert(bad); err == nil {
		t.Error("Insert with out-of-range partition succeeded")
	}
	if err := oi.Move(0, bad); err == nil {
		t.Error("Move to out-of-range partition succeeded")
	}
	if _, alive := oi.Location(1); alive {
		t.Error("Location(deleted) reports alive")
	}
	if loc, alive := oi.Location(0); !alive || loc.Partition != oi.Objects()[0].Partition {
		t.Error("Location(live) mismatch")
	}
}

// TestInsertReusesDeletedSlots verifies that deleted IDs are recycled before
// the object table grows.
func TestInsertReusesDeletedSlots(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(13))
	oi := tree.IndexObjects(randomObjects(v, 4, 21))
	if err := oi.Delete(2); err != nil {
		t.Fatal(err)
	}
	id, err := oi.Insert(v.RandomLocation(rng))
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("Insert after Delete(2) allocated id %d, want the freed slot 2", id)
	}
	if n := oi.NumObjects(); n != 4 {
		t.Errorf("NumObjects() = %d, want 4", n)
	}
}

// TestEpochAdvancesPerUpdate verifies the update epoch increments on every
// completed mutation and not on queries.
func TestEpochAdvancesPerUpdate(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(15))
	oi := tree.IndexObjects(randomObjects(v, 2, 31))
	if oi.Epoch() != 0 {
		t.Fatalf("fresh build epoch = %d, want 0", oi.Epoch())
	}
	oi.KNN(v.RandomLocation(rng), 1)
	if oi.Epoch() != 0 {
		t.Error("query advanced the epoch")
	}
	id, _ := oi.Insert(v.RandomLocation(rng))
	if err := oi.Move(id, v.RandomLocation(rng)); err != nil {
		t.Fatal(err)
	}
	if err := oi.Delete(id); err != nil {
		t.Fatal(err)
	}
	if oi.Epoch() != 3 {
		t.Errorf("epoch after insert+move+delete = %d, want 3", oi.Epoch())
	}
}

// TestDeleteAllEmptiesEveryBranch deletes every object and verifies queries
// find nothing — the per-subtree counts must un-mark emptied branches all
// the way to the root.
func TestDeleteAllEmptiesEveryBranch(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(33))
	objs := randomObjects(v, 12, 3)
	oi := tree.IndexObjects(objs)
	for id := range objs {
		if err := oi.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	ep := oi.currentEpoch()
	for n := 0; n < len(tree.nodes); n++ {
		if c := ep.subtreeCount[n]; c != 0 {
			t.Fatalf("node %d count = %d after deleting everything", n, c)
		}
	}
	q := v.RandomLocation(rng)
	if got := oi.KNN(q, 5); len(got) != 0 {
		t.Errorf("KNN over emptied index = %v", got)
	}
	if got := oi.Range(q, 1e9); len(got) != 0 {
		t.Errorf("Range over emptied index = %v", got)
	}
	// The emptied index accepts new objects again.
	if _, err := oi.Insert(v.RandomLocation(rng)); err != nil {
		t.Fatal(err)
	}
	if got := oi.KNN(q, 5); len(got) != 1 {
		t.Errorf("KNN after refill = %v, want one result", got)
	}
}

// TestEquidistantTieBreakOnObjectID is the regression test for the explicit
// ObjectID tie-break: equidistant objects must always be ranked by ascending
// ID — including after moves reorder the access lists — so result order is
// deterministic rather than an accident of insertion order.
func TestEquidistantTieBreakOnObjectID(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(55))
	spot := v.RandomLocation(rng)
	q := v.RandomLocation(rng)
	// Three objects at the same location are equidistant from any query.
	oi := tree.IndexObjects([]model.Location{spot, spot, spot})

	assertAscendingIDs := func(what string, rs []index.ObjectResult, wantIDs ...ObjectID) {
		t.Helper()
		if len(rs) != len(wantIDs) {
			t.Fatalf("%s returned %d results (%v), want %d", what, len(rs), rs, len(wantIDs))
		}
		for i, want := range wantIDs {
			if rs[i].ObjectID != want {
				t.Fatalf("%s result IDs = %v, want %v", what, rs, wantIDs)
			}
		}
	}
	assertAscendingIDs("KNN(q,2)", oi.KNN(q, 2), 0, 1)
	assertAscendingIDs("Range", oi.Range(q, 1e9), 0, 1, 2)

	// Moving the lowest ID away and back re-inserts it into every access
	// list; the tie-break must still rank it first.
	elsewhere := v.RandomLocation(rng)
	if err := oi.Move(0, elsewhere); err != nil {
		t.Fatal(err)
	}
	if err := oi.Move(0, spot); err != nil {
		t.Fatal(err)
	}
	assertAscendingIDs("KNN(q,2) after move", oi.KNN(q, 2), 0, 1)
	assertAscendingIDs("Range after move", oi.Range(q, 1e9), 0, 1, 2)
}

// TestConcurrentUpdatesAndQueries exercises the concurrency contract under
// the race detector: updater goroutines insert/delete/move their own objects
// while query goroutines run kNN and Range. Queries must never panic, never
// return torn state (unsorted results, duplicate IDs, dead IDs) and must
// always report the untouched static objects exactly.
func TestConcurrentUpdatesAndQueries(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(71))

	const (
		numStatic   = 12
		numUpdaters = 4
		perUpdater  = 6
		numQueriers = 4
		opsPer      = 250
	)
	static := randomObjects(v, numStatic, 81)
	all := append(append([]model.Location{}, static...), randomObjects(v, numUpdaters*perUpdater, 83)...)
	oi := tree.IndexObjects(all)

	// Baseline: the exact distances of the static objects from a fixed
	// query point, taken before any mutation. Static objects are never
	// touched, so every concurrent query must reproduce them bit-identically.
	q := v.RandomLocation(rng)
	baseline := map[ObjectID]float64{}
	for _, r := range oi.Range(q, 1e15) {
		if r.ObjectID < numStatic {
			baseline[r.ObjectID] = r.Dist
		}
	}
	if len(baseline) != numStatic {
		t.Fatalf("baseline found %d of %d static objects", len(baseline), numStatic)
	}

	var updaters, queriers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, numUpdaters+numQueriers)
	for u := 0; u < numUpdaters; u++ {
		updaters.Add(1)
		go func(u int) {
			defer updaters.Done()
			rng := rand.New(rand.NewSource(int64(1000 + u)))
			// Each updater owns a disjoint ID range, so its operations
			// never conflict logically with another updater's.
			owned := make([]ObjectID, perUpdater)
			for i := range owned {
				owned[i] = numStatic + u*perUpdater + i
			}
			for op := 0; op < opsPer; op++ {
				i := rng.Intn(len(owned))
				switch rng.Intn(3) {
				case 0:
					if err := oi.Move(owned[i], v.RandomLocation(rng)); err != nil {
						errs <- err
						return
					}
				case 1:
					if err := oi.Delete(owned[i]); err != nil {
						errs <- err
						return
					}
					id, err := oi.Insert(v.RandomLocation(rng))
					if err != nil {
						errs <- err
						return
					}
					owned[i] = id
				default:
					id, err := oi.Insert(v.RandomLocation(rng))
					if err != nil {
						errs <- err
						return
					}
					if err := oi.Delete(id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(u)
	}
	for w := 0; w < numQueriers; w++ {
		queriers.Add(1)
		go func(w int) {
			defer queriers.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				var rs []index.ObjectResult
				if rng.Intn(2) == 0 {
					rs = oi.KNN(q, numStatic+numUpdaters*perUpdater+8)
				} else {
					rs = oi.Range(q, 1e15)
				}
				seen := map[ObjectID]bool{}
				staticSeen := 0
				for i, r := range rs {
					if i > 0 && rs[i].Dist < rs[i-1].Dist {
						t.Errorf("results not ascending: %v then %v", rs[i-1], rs[i])
						return
					}
					if seen[r.ObjectID] {
						t.Errorf("duplicate object %d in results", r.ObjectID)
						return
					}
					seen[r.ObjectID] = true
					if want, isStatic := baseline[r.ObjectID]; isStatic {
						staticSeen++
						if r.Dist != want {
							t.Errorf("static object %d at distance %v, want %v", r.ObjectID, r.Dist, want)
							return
						}
					}
				}
				if staticSeen != numStatic {
					t.Errorf("query saw %d of %d static objects", staticSeen, numStatic)
					return
				}
			}
		}(w)
	}
	// Updaters run a fixed op count; once they all finish, release the
	// queriers (which loop until told to stop) and collect any errors.
	updaters.Wait()
	close(done)
	queriers.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("updater error: %v", err)
	}
}

// TestMovesRetainNoHistory pins that a non-durable object index under
// sustained churn holds no more memory than its objects: 200,000 moves may
// grow the live heap, measured after a full collection, by less than 1 MB.
// An update log that kept every applied record (56 B each) would grow it by
// over 11 MB.
func TestMovesRetainNoHistory(t *testing.T) {
	v := venuegen.PaperExample()
	tree := MustBuildVIPTree(v, Options{})
	oi := tree.IndexObjects(randomObjects(v, 200, 3))
	locs := randomObjects(v, 4096, 4)
	move := func(n int) {
		for i := 0; i < n; i++ {
			if err := oi.Move(i%200, locs[i%len(locs)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Let the leaf lists reach their steady-state capacity first.
	move(len(locs))
	before := liveHeap()
	const moves = 200_000
	move(moves)
	after := liveHeap()
	runtime.KeepAlive(oi)
	if got := oi.ChangeLog().HeadSeq(); got != moves+uint64(len(locs)) {
		t.Fatalf("log head %d after %d moves", got, moves+len(locs))
	}
	if after > before && after-before >= 1<<20 {
		t.Fatalf("%d moves grew the live heap by %.1f MB, want < 1 MB", moves, float64(after-before)/(1<<20))
	}
	t.Logf("%d moves: live heap %d -> %d bytes", moves, before, after)
}
