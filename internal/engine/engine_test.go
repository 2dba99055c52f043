package engine_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"viptree/internal/baseline/distaware"
	"viptree/internal/baseline/distmatrix"
	"viptree/internal/baseline/gtree"
	"viptree/internal/baseline/road"
	"viptree/internal/engine"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

func testVenue(t testing.TB) *model.Venue {
	t.Helper()
	v, err := venuegen.Building(venuegen.BuildingConfig{
		Name: "engine-test", Floors: 3, RoomsPerHallway: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mixedWorkload(v *model.Venue, n int, seed int64) []engine.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]engine.Query, n)
	for i := range qs {
		switch i % 4 {
		case 0:
			qs[i] = engine.Query{Kind: engine.KindDistance, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		case 1:
			qs[i] = engine.Query{Kind: engine.KindPath, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		case 2:
			qs[i] = engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(rng), K: 1 + rng.Intn(5)}
		default:
			qs[i] = engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: 40 + 80*rng.Float64()}
		}
	}
	return qs
}

// engines builds one engine per index implementation, each with an attached
// object querier, exercising the uniform capability interface end to end.
func engines(t testing.TB, v *model.Venue, objects []model.Location) map[string]*engine.Engine {
	t.Helper()
	ip, err := iptree.BuildIPTree(v, iptree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vip := iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{}))
	indexers := []index.ObjectIndexer{
		ip,
		vip,
		distmatrix.Build(v, true),
		distaware.New(v),
		gtree.Build(v, gtree.Options{}),
		road.Build(v, road.Options{}),
	}
	out := make(map[string]*engine.Engine, len(indexers))
	for _, ix := range indexers {
		out[ix.Name()] = engine.New(ix, engine.Options{
			Workers: 4,
			Objects: ix.NewObjectQuerier(objects),
		})
	}
	return out
}

// withWorkers returns an engine over eng's index and object querier with
// the given batch worker count (1 runs every batch on the caller).
func withWorkers(eng *engine.Engine, workers int) *engine.Engine {
	return engine.New(eng.Index(), engine.Options{Workers: workers, Objects: eng.Objects()})
}

// TestParallelBatchMatchesSequential is the concurrent-correctness test: for
// every index, executing a mixed batch over the worker pool must produce
// exactly the results of sequential execution.
func TestParallelBatchMatchesSequential(t *testing.T) {
	v := testVenue(t)
	rng := rand.New(rand.NewSource(3))
	objects := make([]model.Location, 40)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	queries := mixedWorkload(v, 200, 11)
	for name, eng := range engines(t, v, objects) {
		t.Run(name, func(t *testing.T) {
			sequential := withWorkers(eng, 1).ExecuteBatch(queries)
			parallel := eng.ExecuteBatch(queries)
			if len(sequential) != len(parallel) {
				t.Fatalf("result count mismatch: %d vs %d", len(sequential), len(parallel))
			}
			for i := range sequential {
				if !resultsEqual(sequential[i], parallel[i]) {
					t.Fatalf("query %d (%v): sequential %+v != parallel %+v",
						i, queries[i].Kind, sequential[i], parallel[i])
				}
			}
		})
	}
}

// TestConcurrentCallers hammers one engine from many goroutines at once; the
// race detector (go test -race) verifies the pooled scratch is safe.
func TestConcurrentCallers(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(5))
	objects := make([]model.Location, 25)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Objects: vip.IndexObjects(objects)})
	queries := mixedWorkload(v, 64, 17)
	want := withWorkers(eng, 1).ExecuteBatch(queries)
	var wg sync.WaitGroup
	const callers = 8
	errs := make(chan string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := eng.ExecuteBatch(queries)
			for i := range want {
				if !resultsEqual(want[i], got[i]) {
					errs <- "concurrent caller diverged from sequential results"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestEngineStats(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(9))
	objects := []model.Location{v.RandomLocation(rng), v.RandomLocation(rng)}
	eng := engine.New(vip, engine.Options{Objects: vip.IndexObjects(objects)})
	eng.ExecuteBatch(mixedWorkload(v, 40, 23))
	s := eng.Stats()
	if s.Distance != 10 || s.Path != 10 || s.KNN != 10 || s.Range != 10 {
		t.Errorf("unexpected per-kind counts: %+v", s)
	}
	if s.Total() != 40 {
		t.Errorf("Total() = %d, want 40", s.Total())
	}
}

func TestObjectQueriesWithoutObjectIndex(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	eng := engine.New(vip, engine.Options{})
	rng := rand.New(rand.NewSource(2))
	res := eng.Execute(engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(rng), K: 3})
	if res.Err != engine.ErrNoObjectIndex {
		t.Errorf("KNN without objects: err = %v, want ErrNoObjectIndex", res.Err)
	}
	res = eng.Execute(engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: 10})
	if res.Err != engine.ErrNoObjectIndex {
		t.Errorf("Range without objects: err = %v, want ErrNoObjectIndex", res.Err)
	}
	res = eng.Execute(engine.Query{Kind: engine.Kind(250)})
	if res.Err != engine.ErrUnknownKind {
		t.Errorf("unknown kind: err = %v, want ErrUnknownKind", res.Err)
	}
}

func resultsEqual(a, b engine.Result) bool {
	if !floatEqual(a.Dist, b.Dist) || !reflect.DeepEqual(a.Doors, b.Doors) || a.Err != b.Err {
		return false
	}
	if len(a.Objects) != len(b.Objects) {
		return false
	}
	for i := range a.Objects {
		if a.Objects[i].ObjectID != b.Objects[i].ObjectID || !floatEqual(a.Objects[i].Dist, b.Objects[i].Dist) {
			return false
		}
	}
	return true
}

func floatEqual(a, b float64) bool {
	if math.IsInf(a, 1) || a == b {
		return true
	}
	return math.Abs(a-b) < 1e-9
}

// TestUpdateKinds drives the three object-update kinds through Execute and
// verifies their effect is visible to subsequent queries.
func TestUpdateKinds(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(31))
	objects := make([]model.Location, 5)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Objects: vip.IndexObjects(objects)})
	if eng.Mutable() == nil {
		t.Fatal("tree object index not reported as mutable")
	}
	q := v.RandomLocation(rng)

	res := eng.Execute(engine.Query{Kind: engine.KindInsert, S: q})
	if res.Err != nil {
		t.Fatalf("insert: %v", res.Err)
	}
	id := res.ObjectID
	if knn, err := eng.KNN(q, 1); err != nil || len(knn) != 1 || knn[0].ObjectID != id {
		t.Fatalf("1-NN after insert = %v (%v), want object %d", knn, err, id)
	}
	res = eng.Execute(engine.Query{Kind: engine.KindMove, ObjectID: id, S: v.RandomLocation(rng)})
	if res.Err != nil || res.ObjectID != id {
		t.Fatalf("move: %+v", res)
	}
	res = eng.Execute(engine.Query{Kind: engine.KindDelete, ObjectID: id})
	if res.Err != nil {
		t.Fatalf("delete: %v", res.Err)
	}
	res = eng.Execute(engine.Query{Kind: engine.KindDelete, ObjectID: id})
	if res.Err == nil {
		t.Fatal("double delete succeeded")
	}
	s := eng.Stats()
	if s.Insert != 1 || s.Move != 1 || s.Delete != 2 {
		t.Errorf("update stats = %+v", s)
	}
	if s.Updates() != 4 || s.Reads() != 1 || s.Total() != 5 {
		t.Errorf("aggregate stats = %+v (updates %d, reads %d)", s, s.Updates(), s.Reads())
	}
	for _, k := range []engine.Kind{engine.KindInsert, engine.KindDelete, engine.KindMove} {
		if !k.IsUpdate() {
			t.Errorf("%v.IsUpdate() = false", k)
		}
	}
	if engine.KindKNN.IsUpdate() {
		t.Error("KindKNN.IsUpdate() = true")
	}
}

// TestUpdatesAgainstImmutableQuerier verifies update kinds fail cleanly when
// the attached object querier (here: a baseline's) cannot be mutated, and
// when no querier is attached at all.
func TestUpdatesAgainstImmutableQuerier(t *testing.T) {
	v := testVenue(t)
	rng := rand.New(rand.NewSource(37))
	objects := []model.Location{v.RandomLocation(rng)}
	gt := gtree.Build(v, gtree.Options{})
	eng := engine.New(gt, engine.Options{Objects: gt.NewObjectQuerier(objects)})
	if eng.Mutable() != nil {
		t.Fatal("baseline object querier reported as mutable")
	}
	res := eng.Execute(engine.Query{Kind: engine.KindInsert, S: v.RandomLocation(rng)})
	if res.Err != engine.ErrImmutableObjects {
		t.Errorf("insert on baseline: err = %v, want ErrImmutableObjects", res.Err)
	}
	if err := eng.Move(0, v.RandomLocation(rng)); err != engine.ErrImmutableObjects {
		t.Errorf("move on baseline: err = %v, want ErrImmutableObjects", err)
	}
	none := engine.New(gt, engine.Options{})
	if err := none.Delete(0); err != engine.ErrNoObjectIndex {
		t.Errorf("delete without querier: err = %v, want ErrNoObjectIndex", err)
	}
}

// TestMixedBatchUnderRace executes batches mixing reads with object updates
// over the worker pool, from several goroutines at once — the HTAP-style
// workload the mutable object layer exists for. Run under -race in CI, it
// proves the engine's update path is data-race free; here it additionally
// checks every operation succeeded and the object count balances.
func TestMixedBatchUnderRace(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(41))
	objects := make([]model.Location, 30)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	oi := vip.IndexObjects(objects)
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: oi})

	const callers = 4
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			qs := make([]engine.Query, 120)
			for i := range qs {
				switch {
				case i%10 == 0:
					// Each caller moves only its own object, so every
					// update must succeed.
					qs[i] = engine.Query{Kind: engine.KindMove, ObjectID: c, S: v.RandomLocation(rng)}
				case i%3 == 0:
					qs[i] = engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(rng), K: 5}
				case i%3 == 1:
					qs[i] = engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: 80}
				default:
					qs[i] = engine.Query{Kind: engine.KindDistance, S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
				}
			}
			for _, r := range eng.ExecuteBatch(qs) {
				if r.Err != nil {
					errs <- r.Err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("mixed batch error: %v", err)
	}
	if n := oi.NumObjects(); n != len(objects) {
		t.Errorf("NumObjects() after move-only workload = %d, want %d", n, len(objects))
	}
	if got := eng.Stats().Updates(); got != callers*12 {
		t.Errorf("Stats().Updates() = %d, want %d", got, callers*12)
	}
}

// TestLatencySampling exercises the latency ring: quantiles are nil without
// sampling, monotone with it, reset drops the warm-up samples, and recording
// under the parallel batch path is race-free (the -race CI run covers this
// test too).
func TestLatencySampling(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})

	off := engine.New(vip, engine.Options{})
	off.Execute(mixedWorkload(v, 1, 3)[0])
	if qs := off.LatencyQuantiles(0.5); qs != nil {
		t.Fatalf("quantiles without sampling = %v, want nil", qs)
	}

	eng := engine.New(vip, engine.Options{Workers: 4, LatencySampleSize: 256})
	if qs := eng.LatencyQuantiles(0.5); qs != nil {
		t.Fatalf("quantiles before any operation = %v, want nil", qs)
	}
	eng.ExecuteBatch(mixedWorkload(v, 64, 5))
	eng.ResetLatencies()
	if qs := eng.LatencyQuantiles(0.5); qs != nil {
		t.Fatalf("quantiles after reset = %v, want nil", qs)
	}
	eng.ExecuteBatch(mixedWorkload(v, 500, 6)) // more samples than ring slots
	qs := eng.LatencyQuantiles(0.50, 0.95, 0.99)
	if len(qs) != 3 {
		t.Fatalf("got %d quantiles, want 3", len(qs))
	}
	if qs[0] <= 0 || qs[0] > qs[1] || qs[1] > qs[2] {
		t.Fatalf("quantiles not positive and monotone: %v", qs)
	}
}
