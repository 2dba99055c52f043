package engine_test

import (
	"math/rand"
	"sync"
	"testing"

	"viptree/internal/engine"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// readWorkload draws an all-read batch the planner qualifies for: distance
// queries dominate (many sharing a handful of clustered sources, so batch
// groups actually form), with Path/kNN/Range queries mixed in as the
// "rest" the planner fans over the pool.
func readWorkload(v *model.Venue, n int, seed int64) []engine.Query {
	rng := rand.New(rand.NewSource(seed))
	clusters := make([]model.Location, 3)
	for i := range clusters {
		clusters[i] = v.RandomLocation(rng)
	}
	qs := make([]engine.Query, n)
	for i := range qs {
		switch i % 6 {
		case 0, 1:
			qs[i] = engine.Query{Kind: engine.KindDistance, S: clusters[rng.Intn(len(clusters))], T: v.RandomLocation(rng)}
		case 2:
			qs[i] = engine.Query{Kind: engine.KindDistance, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		case 3:
			qs[i] = engine.Query{Kind: engine.KindPath, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		case 4:
			qs[i] = engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(rng), K: 1 + rng.Intn(5)}
		default:
			qs[i] = engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: 40 + 80*rng.Float64()}
		}
	}
	return qs
}

// plannerEngines returns the batch-capable engines (IP-Tree and VIP-Tree)
// with the planner enabled, each with an attached object querier.
func plannerEngines(t testing.TB, v *model.Venue, objects []model.Location) map[string]*engine.Engine {
	t.Helper()
	ip := iptree.MustBuildIPTree(v, iptree.Options{})
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	return map[string]*engine.Engine{
		ip.Name():  engine.New(ip, engine.Options{Workers: 4, Objects: ip.NewObjectQuerier(objects)}),
		vip.Name(): engine.New(vip, engine.Options{Workers: 4, Objects: vip.NewObjectQuerier(objects)}),
	}
}

// TestPlannedBatchMatchesExecute is the planner's central property: on the
// batch-capable indexes, ExecuteBatch results are element-wise identical to
// per-query Execute for every worker count. Runs on both a single building
// and a multi-building campus (deep LCAs, many distinct leaves).
func TestPlannedBatchMatchesExecute(t *testing.T) {
	venues := map[string]*model.Venue{
		"building": testVenue(t),
		"campus":   venuegen.MustCampus(venuegen.CampusConfig{Name: "planner-campus", Buildings: 3, Seed: 19}),
	}
	for vname, v := range venues {
		rng := rand.New(rand.NewSource(5))
		objects := make([]model.Location, 30)
		for i := range objects {
			objects[i] = v.RandomLocation(rng)
		}
		queries := readWorkload(v, 180, 23)
		for name, eng := range plannerEngines(t, v, objects) {
			t.Run(vname+"/"+name, func(t *testing.T) {
				want := make([]engine.Result, len(queries))
				for i := range queries {
					want[i] = eng.Execute(queries[i])
				}
				for _, workers := range []int{1, 3, 16} {
					got := withWorkers(eng, workers).ExecuteBatch(queries)
					for i := range want {
						if !resultsEqual(want[i], got[i]) {
							t.Fatalf("workers=%d query %d (%v): planned %+v != Execute %+v",
								workers, i, queries[i].Kind, got[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPlannerFallbackOnUpdates checks that a batch containing an object
// update stays safe AND planned: the update splits the batch into two read
// runs that each still batch their distance queries, the distance results
// match per-query Execute (an insert cannot affect distances), the update
// itself takes effect, and the operation counters balance — including the
// batched-query counters, which must cover every distance query in both runs.
func TestPlannerFallbackOnUpdates(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(43))
	objects := make([]model.Location, 10)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	oi := vip.IndexObjects(objects)
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: oi})

	queries := make([]engine.Query, 41)
	for i := range queries {
		queries[i] = engine.Query{Kind: engine.KindDistance, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
	}
	queries[20] = engine.Query{Kind: engine.KindInsert, S: v.RandomLocation(rng)}

	want := make([]float64, len(queries))
	for i, q := range queries {
		if q.Kind == engine.KindDistance {
			want[i] = eng.Index().Distance(q.S, q.T)
		}
	}
	got := eng.ExecuteBatch(queries)
	for i, q := range queries {
		if q.Kind != engine.KindDistance {
			continue
		}
		if got[i].Dist != want[i] {
			t.Fatalf("query %d: mixed batch Dist = %v, want %v", i, got[i].Dist, want[i])
		}
	}
	if got[20].Err != nil || got[20].ObjectID < 0 {
		t.Fatalf("insert in mixed batch: %+v", got[20])
	}
	if n := oi.NumObjects(); n != len(objects)+1 {
		t.Fatalf("NumObjects() after insert = %d, want %d", n, len(objects)+1)
	}
	st := eng.Stats()
	if st.Distance != int64(len(queries)-1) || st.Insert != 1 {
		t.Fatalf("Stats() = %+v, want %d distance and 1 insert", st, len(queries)-1)
	}
	// Both read runs around the insert plan: all 40 distance queries batch.
	if st.BatchedDistance != int64(len(queries)-1) {
		t.Fatalf("Stats().BatchedDistance = %d, want %d (read runs around the update must still plan)",
			st.BatchedDistance, len(queries)-1)
	}
}

// TestPlannerReadRunSplitting is the regression test for the read-run
// splitter: a batch mixing distance, kNN and range queries around a Move
// must produce exactly the results of sequential per-query execution (reads
// before the update see the old object state, reads after see the new one),
// and the batched counters must account for every read in both runs.
func TestPlannerReadRunSplitting(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(83))
	objects := make([]model.Location, 12)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: vip.IndexObjects(objects)})
	// Twin engine over the same tree and object set, executed strictly
	// per-query: the reference for run-order semantics.
	twin := engine.New(vip, engine.Options{Workers: 1, Objects: vip.IndexObjects(objects)})

	var queries []engine.Query
	half := func(seed int64) {
		hr := rand.New(rand.NewSource(seed))
		for i := 0; i < 6; i++ {
			queries = append(queries,
				engine.Query{Kind: engine.KindDistance, S: v.RandomLocation(hr), T: v.RandomLocation(hr)},
				engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(hr), K: 3},
				engine.Query{Kind: engine.KindRange, S: v.RandomLocation(hr), Radius: 120},
			)
		}
	}
	half(7)
	// The move relocates object 0 far enough to change nearby kNN answers.
	queries = append(queries, engine.Query{Kind: engine.KindMove, ObjectID: 0, S: v.RandomLocation(rng)})
	half(11)

	want := make([]engine.Result, len(queries))
	for i, q := range queries {
		want[i] = twin.Execute(q)
	}
	got := eng.ExecuteBatch(queries)
	for i := range want {
		if !resultsEqual(got[i], want[i]) {
			t.Fatalf("query %d (%v): planned %+v != sequential %+v", i, queries[i].Kind, got[i], want[i])
		}
	}

	st := eng.Stats()
	if st.BatchedDistance != 12 || st.BatchedKNN != 12 || st.BatchedRange != 12 {
		t.Fatalf("batched counters = %d/%d/%d (distance/kNN/range), want 12 each: %+v",
			st.BatchedDistance, st.BatchedKNN, st.BatchedRange, st)
	}
	if st.Move != 1 {
		t.Fatalf("Stats().Move = %d, want 1", st.Move)
	}
	// The batched kNN/range runs exercised the climb cache.
	if st.ClimbCacheHits+st.ClimbCacheMisses == 0 {
		t.Fatalf("climb cache untouched by batched object queries: %+v", st)
	}
}

// TestPlannerSmallAndUnknownBatches pins the per-query path inside a read
// run: a lone distance query is answered by Execute (no segment to
// amortise), and an unknown kind surfaces ErrUnknownKind instead of
// derailing the batch.
func TestPlannerSmallAndUnknownBatches(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	eng := engine.New(vip, engine.Options{Workers: 4})
	rng := rand.New(rand.NewSource(47))

	one := []engine.Query{{Kind: engine.KindDistance, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}}
	if got := eng.ExecuteBatch(one); got[0].Dist != eng.Distance(one[0].S, one[0].T) {
		t.Fatalf("single-distance batch Dist = %v", got[0].Dist)
	}

	bad := append(readWorkload(v, 10, 3), engine.Query{Kind: engine.Kind(99)})
	got := eng.ExecuteBatch(bad)
	if got[len(got)-1].Err == nil {
		t.Fatal("unknown kind in batch: Err = nil, want error")
	}
	for i := range bad[:len(bad)-1] {
		if bad[i].Kind == engine.KindDistance && got[i].Dist != eng.Distance(bad[i].S, bad[i].T) {
			t.Fatalf("query %d alongside unknown kind: Dist = %v", i, got[i].Dist)
		}
	}
}

// TestPlannerStatsAndLatency verifies the planned path keeps the engine's
// observability intact: every batched distance query is counted, and
// latency sampling records an amortised per-query share.
func TestPlannerStatsAndLatency(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(71))
	objects := make([]model.Location, 15)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{
		Workers: 4, LatencySampleSize: 256, Objects: vip.IndexObjects(objects),
	})
	queries := readWorkload(v, 120, 31)
	nDist := 0
	for _, q := range queries {
		if q.Kind == engine.KindDistance {
			nDist++
		}
	}
	eng.ExecuteBatch(queries)
	st := eng.Stats()
	if st.Distance != int64(nDist) {
		t.Fatalf("Stats().Distance = %d, want %d", st.Distance, nDist)
	}
	if st.Reads() != int64(len(queries)) {
		t.Fatalf("Stats().Reads() = %d, want %d", st.Reads(), len(queries))
	}
	qs := eng.LatencyQuantiles(0.5, 0.99)
	if qs == nil {
		t.Fatal("LatencyQuantiles after planned batch = nil, want samples")
	}
	if qs[0] > qs[1] {
		t.Fatalf("quantiles not monotone: %v", qs)
	}
}

// TestExecuteBatchWorkerCountEdgeCases is the regression test for the batch
// entry point itself: empty batches short-circuit, worker counts wider than
// the batch are capped, and non-positive counts fall back to the GOMAXPROCS
// default — all returning correct results.
func TestExecuteBatchWorkerCountEdgeCases(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	queries := readWorkload(v, 3, 59)
	ref := engine.New(vip, engine.Options{Workers: 1})
	want := make([]engine.Result, len(queries))
	for i := range queries {
		want[i] = ref.Execute(queries[i])
	}
	for _, workers := range []int{-5, 0, 1, 2, 100} {
		eng := engine.New(vip, engine.Options{Workers: workers})
		for _, empty := range [][]engine.Query{nil, {}} {
			if got := eng.ExecuteBatch(empty); got == nil || len(got) != 0 {
				t.Fatalf("workers=%d: ExecuteBatch(%v) = %v, want empty non-nil", workers, empty, got)
			}
		}
		got := eng.ExecuteBatch(queries)
		if len(got) != len(queries) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(queries))
		}
		for i := range want {
			if !resultsEqual(want[i], got[i]) {
				t.Fatalf("workers=%d query %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchOrdersReadsAroundUpdates pins the ordering rule every batch
// follows, including one with nothing to batch: runs of reads and of updates
// execute in batch order. The batch alternates single moves of one object
// with single kNN queries at its new location, so no run holds two queries
// of one kind; on a pooled engine each kNN must still see the move before
// it, exactly as per-query Execute in batch order on a twin engine does.
func TestBatchOrdersReadsAroundUpdates(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(89))
	objects := make([]model.Location, 12)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: vip.IndexObjects(objects)})
	twin := engine.New(vip, engine.Options{Workers: 1, Objects: vip.IndexObjects(objects)})

	var queries []engine.Query
	for i := 0; i < 16; i++ {
		loc := v.RandomLocation(rng)
		queries = append(queries,
			engine.Query{Kind: engine.KindMove, ObjectID: 0, S: loc},
			engine.Query{Kind: engine.KindKNN, S: loc, K: 1},
		)
	}
	want := make([]engine.Result, len(queries))
	for i, q := range queries {
		want[i] = twin.Execute(q)
	}
	got := eng.ExecuteBatch(queries)
	for i := range want {
		if !resultsEqual(got[i], want[i]) {
			t.Fatalf("query %d (%v): batch %+v != sequential %+v", i, queries[i].Kind, got[i], want[i])
		}
		// Object 0 sits at the kNN point and wins every tie on its ID.
		if queries[i].Kind == engine.KindKNN && (len(got[i].Objects) != 1 || got[i].Objects[0].ObjectID != 0) {
			t.Fatalf("query %d: kNN at the moved object's location = %+v, want object 0", i, got[i].Objects)
		}
	}
	if st := eng.Stats(); st.BatchedKNN != 0 || st.Move != 16 || st.KNN != 16 {
		t.Fatalf("Stats() = %+v, want 16 unbatched kNN and 16 moves", st)
	}
}

// TestPlannerWithConcurrentMovers races planned all-read batches against
// continuous object movement through the same engine. Distance results are
// object-independent and must stay exact; kNN/range results vary with the
// moving objects but must never error. Run with -race in CI.
func TestPlannerWithConcurrentMovers(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(61))
	objects := make([]model.Location, 20)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: vip.IndexObjects(objects)})

	queries := readWorkload(v, 160, 67)
	wantDist := make([]float64, len(queries))
	for i, q := range queries {
		if q.Kind == engine.KindDistance {
			wantDist[i] = eng.Index().Distance(q.S, q.T)
		}
	}

	stop := make(chan struct{})
	var movers sync.WaitGroup
	for m := 0; m < 2; m++ {
		movers.Add(1)
		go func(m int) {
			defer movers.Done()
			rng := rand.New(rand.NewSource(int64(70 + m)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Each mover owns half the IDs, so every move succeeds.
				id := 2*rng.Intn(len(objects)/2) + m
				if err := eng.Move(id, v.RandomLocation(rng)); err != nil {
					t.Errorf("mover %d: %v", m, err)
					return
				}
			}
		}(m)
	}

	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 20; round++ {
				for i, r := range eng.ExecuteBatch(queries) {
					if r.Err != nil {
						t.Errorf("read under movers: %v", r.Err)
						return
					}
					if queries[i].Kind == engine.KindDistance && r.Dist != wantDist[i] {
						t.Errorf("query %d: Dist = %v under movers, want %v", i, r.Dist, wantDist[i])
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	movers.Wait()
}
