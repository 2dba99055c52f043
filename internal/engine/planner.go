package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"viptree/internal/index"
)

// This file implements the batch executor behind ExecuteBatch and
// ExecuteBatchContext. Every batch is split into maximal runs of reads and
// of object updates, and the runs execute in batch order: update runs fan
// over the worker pool, read runs go through planReadRun. A read therefore
// observes the object state after every update earlier in the batch and
// before every update later in it.
//
// Inside a read run, each kind with at least two queries and a batched index
// entry point is answered as one segment: index.DistanceBatcher for distance
// queries (the IP-Tree and VIP-Tree fan each pair's own Distance over the
// workers) and index.KNNBatcher/RangeBatcher for object queries (which share
// the Algorithm-2 source climbs and the climb cache). The remaining reads fan
// over the pool through Execute. The batch calls are bit-identical to their
// per-query counterparts, so how a batch is split never changes an answer.

// executeBatch is the batch executor behind ExecuteBatch and
// ExecuteBatchContext. The execution context is honoured per query and, for
// batched segments, per segment: a canceled context marks the queries not
// yet reached with the cancellation error, and in safe mode a panicking
// query or segment yields *PanicError results for exactly its queries.
func (e *Engine) executeBatch(ec execCtx, queries []Query) []Result {
	out := make([]Result, len(queries))
	lo := 0
	for i := 1; i <= len(queries); i++ {
		if i < len(queries) && queries[i].Kind.IsUpdate() == queries[lo].Kind.IsUpdate() {
			continue
		}
		if queries[lo].Kind.IsUpdate() {
			runPooled(i-lo, e.workers, func(k int) {
				out[lo+k] = e.executeOne(&ec, queries[lo+k])
			})
		} else {
			e.planReadRun(&ec, queries[lo:i], out[lo:i])
		}
		lo = i
	}
	return out
}

// planReadRun executes one all-read run: the batchable segments (>= 2
// queries of a kind with the matching capability) go through the index-level
// batch calls, everything else through the pooled per-query path.
func (e *Engine) planReadRun(ec *execCtx, queries []Query, out []Result) {
	nDist, nKNN, nRange := 0, 0, 0
	for i := range queries {
		switch queries[i].Kind {
		case KindDistance:
			nDist++
		case KindKNN:
			nKNN++
		case KindRange:
			nRange++
		}
	}
	batchDist := e.batcher != nil && nDist >= 2
	batchKNN := e.knnBatcher != nil && nKNN >= 2
	batchRange := e.rangeBatcher != nil && nRange >= 2
	var (
		pairs    []index.LocationPair
		distPos  []int32
		knns     []index.KNNQuery
		knnPos   []int32
		ranges   []index.RangeQuery
		rangePos []int32
		rest     []int32
	)
	for i := range queries {
		q := &queries[i]
		switch {
		case q.Kind == KindDistance && batchDist:
			pairs = append(pairs, index.LocationPair{S: q.S, T: q.T})
			distPos = append(distPos, int32(i))
		case q.Kind == KindKNN && batchKNN:
			knns = append(knns, index.KNNQuery{Q: q.S, K: q.K})
			knnPos = append(knnPos, int32(i))
		case q.Kind == KindRange && batchRange:
			ranges = append(ranges, index.RangeQuery{Q: q.S, R: q.Radius})
			rangePos = append(rangePos, int32(i))
		default:
			rest = append(rest, int32(i))
		}
	}
	runSegment(e, ec, KindDistance, distPos, out,
		func(res []float64) { e.batcher.DistanceBatch(pairs, res, e.workers) },
		func(d float64) Result { return Result{Dist: d} })
	runSegment(e, ec, KindKNN, knnPos, out,
		func(res [][]index.ObjectResult) { e.knnBatcher.KNNBatch(knns, res, e.workers) },
		objectsResult)
	runSegment(e, ec, KindRange, rangePos, out,
		func(res [][]index.ObjectResult) { e.rangeBatcher.RangeBatch(ranges, res, e.workers) },
		objectsResult)
	runPooled(len(rest), e.workers, func(k int) {
		i := rest[k]
		out[i] = e.executeOne(ec, queries[i])
	})
}

// runSegment answers the batched segment of one kind — the queries at
// positions pos of the run — with one index-level batch call, which fills
// one slot of res per query; wrap turns a slot into its Result. Cancellation
// and panics act on the segment as a whole, and the per-kind counters and
// the amortised latency samples advance only for a segment that executed.
func runSegment[T any](e *Engine, ec *execCtx, kind Kind, pos []int32, out []Result, call func(res []T), wrap func(T) Result) {
	if len(pos) == 0 {
		return
	}
	start := e.latStart()
	if ec.canceled() {
		markAll(out, pos, ec.cancelErr())
		return
	}
	res := make([]T, len(pos))
	if perr := ec.guard(func() { call(res) }); perr != nil {
		markAll(out, pos, perr)
		return
	}
	for k, i := range pos {
		out[i] = wrap(res[k])
	}
	e.counts[kind].Add(int64(len(pos)))
	e.batched[kind].Add(int64(len(pos)))
	e.recordAmortised(start, len(pos))
}

func objectsResult(objs []index.ObjectResult) Result { return Result{Objects: objs} }

// markAll writes err into every result addressed by pos — the per-segment
// outcome of a canceled or panicked batched index call. The per-kind
// counters are deliberately not advanced: they count executed queries.
func markAll(out []Result, pos []int32, err error) {
	for _, i := range pos {
		out[i] = Result{Err: err}
	}
}

// latStart returns the segment start time when latency sampling is on.
func (e *Engine) latStart() time.Time {
	if e.lat == nil {
		return time.Time{}
	}
	return time.Now()
}

// recordAmortised records n latency samples of the amortised per-query share
// of the batched segment that started at start. The batch shares work across
// queries, so the amortised share — not the full segment duration — is the
// per-query cost the ring should reflect.
func (e *Engine) recordAmortised(start time.Time, n int) {
	if e.lat == nil || n == 0 {
		return
	}
	per := time.Since(start) / time.Duration(n)
	for i := 0; i < n; i++ {
		e.lat.record(per)
	}
}

// runPooled executes fn(i) for every i in [0, n) over a pool of the given
// width. The calling goroutine participates as one worker, so a pool of
// width w spawns w-1 goroutines — and a width of one (or a single item)
// runs entirely on the caller with no goroutines at all. Items are handed
// out through an atomic cursor; fn must write only item-owned state.
//
// A panic in fn is captured (first one wins), the pool drains, and the
// panic value is re-raised on the calling goroutine — so a recover around
// runPooled observes worker panics exactly like caller panics. Note fn is
// usually executeOne, which already recovers per query in safe mode; the
// re-raise matters for the unguarded ExecuteBatch path and for panics in
// the pool plumbing itself.
func runPooled(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		panicVal any
	)
	work := func() {
		defer func() {
			if v := recover(); v != nil && panicked.CompareAndSwap(false, true) {
				panicVal = v
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}
