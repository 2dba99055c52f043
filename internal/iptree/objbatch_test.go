package iptree

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// knnPoints draws a mixed set of query points exercising every batch
// classification: clustered sources (shared climbs and cache hits), exact
// duplicates and uniform points.
func knnPoints(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	clusters := make([]model.Location, 1+rng.Intn(4))
	for i := range clusters {
		clusters[i] = v.RandomLocation(rng)
	}
	out := make([]model.Location, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0: // clustered source
			out[i] = clusters[rng.Intn(len(clusters))]
		case 1: // duplicate of an earlier point
			if i > 0 {
				out[i] = out[rng.Intn(i)]
				continue
			}
			fallthrough
		default: // uniform
			out[i] = v.RandomLocation(rng)
		}
	}
	return out
}

// objectSet draws a random object set for the venue.
func objectSet(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	out := make([]model.Location, n)
	for i := range out {
		out[i] = v.RandomLocation(rng)
	}
	return out
}

// checkKNNBatchMatches runs KNNBatch at several worker counts with the
// climb cache both cold/warm and disabled, and requires every result to be
// element-wise identical (reflect.DeepEqual) to the sequential KNN call.
func checkKNNBatchMatches(t *testing.T, oi *ObjectIndex, points []model.Location, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	queries := make([]index.KNNQuery, len(points))
	for i, p := range points {
		// Include the degenerate counts: k <= 0 must yield nil like KNN.
		queries[i] = index.KNNQuery{Q: p, K: rng.Intn(10) - 1}
	}
	want := make([][]index.ObjectResult, len(queries))
	for i, q := range queries {
		want[i] = oi.KNN(q.Q, q.K)
	}
	for _, capacity := range []int{defaultClimbCacheEntries, 0} {
		oi.Tree().SetClimbCacheCapacity(capacity)
		for _, workers := range []int{1, 3, 16} {
			got := make([][]index.ObjectResult, len(queries))
			oi.KNNBatch(queries, got, workers)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: KNNBatch(workers=%d, cache=%d)[%d] = %v, want %v (q=%v k=%d)",
						oi.Name(), workers, capacity, i, got[i], want[i], queries[i].Q, queries[i].K)
				}
			}
		}
	}
	oi.Tree().SetClimbCacheCapacity(defaultClimbCacheEntries)
}

// checkRangeBatchMatches is the range counterpart of checkKNNBatchMatches.
func checkRangeBatchMatches(t *testing.T, oi *ObjectIndex, points []model.Location, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	queries := make([]index.RangeQuery, len(points))
	for i, p := range points {
		// Radii from negative (always empty) to venue-spanning.
		queries[i] = index.RangeQuery{Q: p, R: float64(rng.Intn(30))*10 - 10}
	}
	want := make([][]index.ObjectResult, len(queries))
	for i, q := range queries {
		want[i] = oi.Range(q.Q, q.R)
	}
	for _, capacity := range []int{defaultClimbCacheEntries, 0} {
		oi.Tree().SetClimbCacheCapacity(capacity)
		for _, workers := range []int{1, 3, 16} {
			got := make([][]index.ObjectResult, len(queries))
			oi.RangeBatch(queries, got, workers)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: RangeBatch(workers=%d, cache=%d)[%d] = %v, want %v (q=%v r=%v)",
						oi.Name(), workers, capacity, i, got[i], want[i], queries[i].Q, queries[i].R)
				}
			}
		}
	}
	oi.Tree().SetClimbCacheCapacity(defaultClimbCacheEntries)
}

// TestKNNBatchMatchesSequential is the central property of the batched kNN
// path: over random venues, object sets and mixed batches, KNNBatch is
// element-wise identical to sequential KNN at any worker count, with the
// climb cache cold, warm or disabled, for both trees.
func TestKNNBatchMatchesSequential(t *testing.T) {
	f := func(seed uint64, qseed uint16) bool {
		v := randomVenue(seed % 1000)
		tree := MustBuildIPTree(v, Options{})
		vt := NewVIPTree(tree)
		points := knnPoints(v, 30, int64(qseed))
		for _, oi := range []*ObjectIndex{
			tree.IndexObjects(objectSet(v, 25, int64(qseed)+1)),
			vt.IndexObjects(objectSet(v, 25, int64(qseed)+2)),
		} {
			queries := make([]index.KNNQuery, len(points))
			rng := rand.New(rand.NewSource(int64(qseed)))
			for i, p := range points {
				queries[i] = index.KNNQuery{Q: p, K: rng.Intn(8)}
			}
			want := make([][]index.ObjectResult, len(queries))
			for i, q := range queries {
				want[i] = oi.KNN(q.Q, q.K)
			}
			for _, workers := range []int{1, 3} {
				got := make([][]index.ObjectResult, len(queries))
				oi.KNNBatch(queries, got, workers)
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestRangeBatchMatchesSequential is the range counterpart of
// TestKNNBatchMatchesSequential.
func TestRangeBatchMatchesSequential(t *testing.T) {
	f := func(seed uint64, qseed uint16) bool {
		v := randomVenue(seed % 1000)
		tree := MustBuildIPTree(v, Options{})
		points := knnPoints(v, 30, int64(qseed))
		oi := tree.IndexObjects(objectSet(v, 25, int64(qseed)+1))
		queries := make([]index.RangeQuery, len(points))
		rng := rand.New(rand.NewSource(int64(qseed)))
		for i, p := range points {
			queries[i] = index.RangeQuery{Q: p, R: float64(rng.Intn(25)) * 10}
		}
		want := make([][]index.ObjectResult, len(queries))
		for i, q := range queries {
			want[i] = oi.Range(q.Q, q.R)
		}
		for _, workers := range []int{1, 3} {
			got := make([][]index.ObjectResult, len(queries))
			oi.RangeBatch(queries, got, workers)
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestObjectBatchCampus pins both batch kinds on a multi-building campus
// venue (distinct leaves per building, deep climbs) across worker counts
// and cache states, for both trees.
func TestObjectBatchCampus(t *testing.T) {
	v := venuegen.MustCampus(venuegen.CampusConfig{Name: "objbatch-campus", Buildings: 4, Seed: 17})
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	points := knnPoints(v, 200, 23)
	for _, oi := range []*ObjectIndex{
		tree.IndexObjects(objectSet(v, 60, 5)),
		vt.IndexObjects(objectSet(v, 60, 6)),
	} {
		checkKNNBatchMatches(t, oi, points, 31)
		checkRangeBatchMatches(t, oi, points, 37)
	}
}

// TestObjectBatchUnderMovers drives batches concurrently with movers and
// checks the epoch pin: every query of one batch must answer from the same
// published epoch. The batch repeats one identical query many times while a
// mover oscillates the nearest object between two distant locations — if
// two queries of a batch observed different epochs, their results would
// differ.
func TestObjectBatchUnderMovers(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "objbatch-movers", Floors: 3, RoomsPerHallway: 10, Seed: 51,
	})
	tree := MustBuildIPTree(v, Options{})
	oi := tree.IndexObjects(objectSet(v, 16, 8))
	rng := rand.New(rand.NewSource(13))
	locA := v.RandomLocation(rng)
	locB := v.RandomLocation(rng)
	q := v.RandomLocation(rng)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			loc := locA
			if i%2 == 1 {
				loc = locB
			}
			if err := oi.Move(0, loc); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const batchSize = 64
	knns := make([]index.KNNQuery, batchSize)
	for i := range knns {
		knns[i] = index.KNNQuery{Q: q, K: 3}
	}
	ranges := make([]index.RangeQuery, batchSize)
	for i := range ranges {
		ranges[i] = index.RangeQuery{Q: q, R: 150}
	}
	for round := 0; round < 50; round++ {
		out := make([][]index.ObjectResult, batchSize)
		oi.KNNBatch(knns, out, 4)
		for i := 1; i < batchSize; i++ {
			if !reflect.DeepEqual(out[i], out[0]) {
				t.Fatalf("round %d: KNNBatch answers differ within one batch: [%d]=%v, [0]=%v",
					round, i, out[i], out[0])
			}
		}
		rout := make([][]index.ObjectResult, batchSize)
		oi.RangeBatch(ranges, rout, 4)
		for i := 1; i < batchSize; i++ {
			if !reflect.DeepEqual(rout[i], rout[0]) {
				t.Fatalf("round %d: RangeBatch answers differ within one batch: [%d]=%v, [0]=%v",
					round, i, rout[i], rout[0])
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiescent: the batch must agree with sequential queries again.
	checkKNNBatchMatches(t, oi, knnPoints(v, 50, 61), 67)
}

// TestKNNBatchWarmCacheNoSweeps is the instrumented acceptance check of the
// climb cache: re-running a batch over already-cached sources must perform
// zero leaf-to-root matrix sweeps — every climb block comes from the cache.
func TestKNNBatchWarmCacheNoSweeps(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "objbatch-sweeps", Floors: 3, RoomsPerHallway: 12, Seed: 71,
	})
	tree := MustBuildIPTree(v, Options{})
	oi := tree.IndexObjects(objectSet(v, 30, 2))
	points := knnPoints(v, 100, 77)
	queries := make([]index.KNNQuery, len(points))
	for i, p := range points {
		queries[i] = index.KNNQuery{Q: p, K: 4}
	}
	out := make([][]index.ObjectResult, len(queries))

	tree.SetClimbCacheCapacity(defaultClimbCacheEntries) // reset to a known state
	oi.KNNBatch(queries, out, 3)
	cold := oi.ClimbCacheStats()
	if cold.Sweeps == 0 {
		t.Fatal("cold batch executed no climb sweeps — instrumentation broken")
	}
	if cold.Misses == 0 || cold.Entries == 0 || cold.Bytes <= 0 {
		t.Fatalf("cold batch populated nothing: %+v", cold)
	}

	oi.KNNBatch(queries, out, 3)
	warm := oi.ClimbCacheStats()
	if got := warm.Sweeps - cold.Sweeps; got != 0 {
		t.Fatalf("warm batch executed %d climb sweeps, want 0 (stats %+v)", got, warm)
	}
	if warm.Hits <= cold.Hits {
		t.Fatalf("warm batch recorded no cache hits: cold %+v, warm %+v", cold, warm)
	}

	// RangeBatch shares the cache: still zero sweeps over the same sources.
	ranges := make([]index.RangeQuery, len(points))
	for i, p := range points {
		ranges[i] = index.RangeQuery{Q: p, R: 80}
	}
	rout := make([][]index.ObjectResult, len(ranges))
	oi.RangeBatch(ranges, rout, 3)
	after := oi.ClimbCacheStats()
	if got := after.Sweeps - warm.Sweeps; got != 0 {
		t.Fatalf("warm RangeBatch executed %d climb sweeps, want 0", got)
	}
}

// TestClimbCacheEviction bounds the cache and checks the clock hand: more
// distinct sources than slots must evict, residency must respect the bound,
// and results must stay correct throughout.
func TestClimbCacheEviction(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "objbatch-evict", Floors: 2, RoomsPerHallway: 10, Seed: 81,
	})
	tree := MustBuildIPTree(v, Options{})
	oi := tree.IndexObjects(objectSet(v, 20, 4))
	tree.SetClimbCacheCapacity(4)
	defer tree.SetClimbCacheCapacity(defaultClimbCacheEntries)

	rng := rand.New(rand.NewSource(5))
	points := make([]model.Location, 32) // far more distinct sources than slots
	for i := range points {
		points[i] = v.RandomLocation(rng)
	}
	queries := make([]index.KNNQuery, len(points))
	for i, p := range points {
		queries[i] = index.KNNQuery{Q: p, K: 3}
	}
	out := make([][]index.ObjectResult, len(queries))
	oi.KNNBatch(queries, out, 1)
	st := oi.ClimbCacheStats()
	if st.Entries > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions after %d distinct sources through 4 slots: %+v", len(points), st)
	}
	for i, q := range queries {
		if want := oi.KNN(q.Q, q.K); !reflect.DeepEqual(out[i], want) {
			t.Fatalf("result %d diverged under eviction pressure: %v, want %v", i, out[i], want)
		}
	}
}
