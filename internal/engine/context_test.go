package engine_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"viptree/internal/engine"
	"viptree/internal/geom"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
)

// poisonX marks a query location that makes stubIndex panic: the stand-in
// for an index bug tripped by one particular query.
const poisonX = -1e9

// stubIndex is a deterministic fake distance index: Distance is the L1 gap
// between the points, and any endpoint at poisonX panics. It deliberately
// does not implement index.DistanceBatcher, so batches fan out per query.
type stubIndex struct{}

func (stubIndex) Name() string { return "stub" }
func (stubIndex) Distance(s, t model.Location) float64 {
	if s.Point.X == poisonX || t.Point.X == poisonX {
		panic("stub index bug")
	}
	dx := s.Point.X - t.Point.X
	if dx < 0 {
		dx = -dx
	}
	return dx
}
func (s stubIndex) Path(a, b model.Location) (float64, []model.DoorID) {
	return s.Distance(a, b), nil
}
func (stubIndex) MemoryBytes() int64 { return 0 }
func (stubIndex) Stats() index.Stats { return index.Stats{Name: "stub"} }

// panicBatchIndex is a stubIndex whose batched distance entry point always
// panics — the stand-in for a bug in an index's batch path.
type panicBatchIndex struct{ stubIndex }

func (panicBatchIndex) DistanceBatch(pairs []index.LocationPair, out []float64, workers int) {
	panic("batched index bug")
}

func at(x float64) model.Location {
	return model.Location{Partition: 0, Point: geom.Point{X: x}}
}

// TestExecuteBatchContextMatchesBatch pins the equivalence contract: under a
// live context, ExecuteBatchContext returns exactly what ExecuteBatch does,
// for a real index with the planner engaged.
func TestExecuteBatchContextMatchesBatch(t *testing.T) {
	v := testVenue(t)
	vip := iptree.MustBuildVIPTree(v, iptree.Options{})
	rng := rand.New(rand.NewSource(17))
	objects := make([]model.Location, 30)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	eng := engine.New(vip, engine.Options{Workers: 4, Objects: vip.NewObjectQuerier(objects)})
	queries := mixedWorkload(v, 300, 23)
	plain := eng.ExecuteBatch(queries)
	ctxed := eng.ExecuteBatchContext(context.Background(), queries)
	for i := range plain {
		if !resultsEqual(plain[i], ctxed[i]) {
			t.Fatalf("query %d (%v): ExecuteBatch %+v != ExecuteBatchContext %+v",
				i, queries[i].Kind, plain[i], ctxed[i])
		}
	}
}

// TestExecuteBatchContextCanceled submits a batch under an already-fired
// context: every query must come back unexecuted with an error matching both
// ErrCanceled and the specific context error, and the executed-query
// counters must not move.
func TestExecuteBatchContextCanceled(t *testing.T) {
	eng := engine.New(stubIndex{}, engine.Options{Workers: 4})
	queries := make([]engine.Query, 64)
	for i := range queries {
		queries[i] = engine.Query{Kind: engine.KindDistance, S: at(float64(i)), T: at(0)}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range eng.ExecuteBatchContext(ctx, queries) {
		if !errors.Is(r.Err, engine.ErrCanceled) || !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("query %d: want ErrCanceled+context.Canceled, got %v", i, r.Err)
		}
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	for i, r := range eng.ExecuteBatchContext(dctx, queries) {
		if !errors.Is(r.Err, engine.ErrCanceled) || !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("query %d: want ErrCanceled+DeadlineExceeded, got %v", i, r.Err)
		}
	}

	if got := eng.Stats().Distance; got != 0 {
		t.Fatalf("canceled queries counted as executed: %d", got)
	}
}

// TestPanicIsolationPerQuery mixes healthy queries with ones that trip the
// stub index's bug: the poisoned queries must come back as *PanicError with
// a captured stack, the healthy ones must answer normally, and the process
// must survive — across pooled workers.
func TestPanicIsolationPerQuery(t *testing.T) {
	eng := engine.New(stubIndex{}, engine.Options{Workers: 4})
	queries := make([]engine.Query, 100)
	for i := range queries {
		x := float64(i)
		if i%7 == 3 {
			x = poisonX
		}
		queries[i] = engine.Query{Kind: engine.KindDistance, S: at(x), T: at(0)}
	}
	for i, r := range eng.ExecuteBatchContext(context.Background(), queries) {
		if i%7 == 3 {
			var perr *engine.PanicError
			if !errors.As(r.Err, &perr) {
				t.Fatalf("query %d: want *PanicError, got %v", i, r.Err)
			}
			if perr.Value != "stub index bug" {
				t.Fatalf("query %d: panic value %v", i, perr.Value)
			}
			if !bytes.Contains(perr.Stack, []byte("goroutine")) {
				t.Fatalf("query %d: no stack captured", i)
			}
		} else if r.Err != nil || r.Dist != float64(i) {
			t.Fatalf("query %d: want dist %d, got %+v", i, i, r)
		}
	}
}

// TestPanicIsolationBatchedSegment routes a batch through a panicking
// batched distance path: exactly the segment's queries become *PanicError
// results, the path queries sharing the batch still answer, and the
// unguarded ExecuteBatch re-raises the same panic to its caller instead of
// dying on a worker goroutine.
func TestPanicIsolationBatchedSegment(t *testing.T) {
	eng := engine.New(panicBatchIndex{}, engine.Options{Workers: 4})
	queries := make([]engine.Query, 40)
	for i := range queries {
		k := engine.KindDistance
		if i%5 == 0 {
			k = engine.KindPath
		}
		queries[i] = engine.Query{Kind: k, S: at(float64(i)), T: at(0)}
	}
	for i, r := range eng.ExecuteBatchContext(context.Background(), queries) {
		if i%5 == 0 {
			if r.Err != nil || r.Dist != float64(i) {
				t.Fatalf("path query %d caught in segment panic: %+v", i, r)
			}
			continue
		}
		var perr *engine.PanicError
		if !errors.As(r.Err, &perr) {
			t.Fatalf("distance query %d: want *PanicError, got %v", i, r.Err)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ExecuteBatch swallowed the index panic")
		}
	}()
	eng.ExecuteBatch(queries)
}

// TestExecuteBatchPanicPropagates pins the unguarded contract on the pooled
// per-query path: a worker panic drains the pool and re-raises on the
// calling goroutine.
func TestExecuteBatchPanicPropagates(t *testing.T) {
	eng := engine.New(stubIndex{}, engine.Options{Workers: 4})
	queries := make([]engine.Query, 50)
	for i := range queries {
		queries[i] = engine.Query{Kind: engine.KindDistance, S: at(float64(i)), T: at(0)}
	}
	queries[37].S = at(poisonX)
	defer func() {
		if v := recover(); v != "stub index bug" {
			t.Fatalf("want re-raised panic, got %v", v)
		}
	}()
	eng.ExecuteBatch(queries)
}
