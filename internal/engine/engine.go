// Package engine provides the concurrent query-execution layer that sits on
// top of the index layer (viptree/internal/index): typed query and result
// structs, single-query execution, and a batch API driven by a worker-pool
// executor.
//
// The engine is the substrate a query service builds on. It holds an index
// (any of the six implementations — IP-Tree, VIP-Tree, DistMx, DistAw,
// G-tree, ROAD) plus an optional object querier for kNN and range queries,
// and is safe for use by many goroutines at once: the distance indexes are
// read-only after construction and the IP-Tree/VIP-Tree hot paths recycle
// their scratch through lock-free free lists, so parallel callers neither
// race nor contend on allocations or locks.
//
// When the object querier is mutable (index.MutableObjectIndexer — the
// IP-Tree/VIP-Tree object index), the engine additionally executes object
// updates (KindInsert, KindDelete, KindMove), concurrently with reads and
// freely mixed within one batch — the HTAP-style read/write mix a live
// tracking service needs. Against an immutable querier, update kinds
// return ErrImmutableObjects. When the querier routes its mutations
// through a single-writer update log (index.ChangeLogger), update kinds
// are funneled through that writer and reads resolve against the current
// published epoch with zero lock operations; Engine.ChangeLog exposes the
// log's sequence watermarks, and a durable engine (Open) makes its
// write-ahead log the log's follower.
//
//	eng := engine.New(vipTree, engine.Options{Objects: objectIndex})
//	results := eng.ExecuteBatch(queries) // fans out over a worker pool
//
// The engine does not care how its index came to exist: one built in
// process and one restored from a snapshot (viptree/internal/snapshot)
// behave identically, so a serving process can skip construction entirely
// and be answering queries milliseconds after start.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/updatelog"
	"viptree/internal/wal"
)

// Kind selects the query type executed by the engine.
type Kind uint8

// The query kinds supported by the engine. KindInsert, KindDelete and
// KindMove are object updates: they mutate the attached object querier and
// can be mixed freely with read kinds in one ExecuteBatch.
const (
	// KindDistance is a shortest-distance query between S and T.
	KindDistance Kind = iota
	// KindPath is a shortest-path query between S and T.
	KindPath
	// KindKNN is a k-nearest-neighbour query around S with parameter K.
	KindKNN
	// KindRange is a range query around S with parameter Radius.
	KindRange
	// KindInsert inserts an object at S; the allocated ID is returned in
	// Result.ObjectID.
	KindInsert
	// KindDelete deletes the object identified by ObjectID.
	KindDelete
	// KindMove relocates the object identified by ObjectID to S.
	KindMove
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindDistance:
		return "distance"
	case KindPath:
		return "path"
	case KindKNN:
		return "knn"
	case KindRange:
		return "range"
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindMove:
		return "move"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsUpdate reports whether the kind mutates the object set.
func (k Kind) IsUpdate() bool {
	return k == KindInsert || k == KindDelete || k == KindMove
}

// Query is one typed query submitted to the engine.
type Query struct {
	Kind Kind
	// S is the query source (distance/path), the query point (kNN/range),
	// or the object location (insert/move).
	S model.Location
	// T is the query target; only used by distance and path queries.
	T model.Location
	// K is the result count of a kNN query.
	K int
	// Radius is the distance bound of a range query, in metres.
	Radius float64
	// ObjectID addresses the object of a delete or move.
	ObjectID int
}

// Result is the outcome of one query.
type Result struct {
	// Dist is the shortest distance (distance and path queries).
	Dist float64
	// Doors is the door sequence of the shortest path (path queries).
	Doors []model.DoorID
	// Objects are the kNN or range results, ascending by distance.
	Objects []index.ObjectResult
	// ObjectID is the ID allocated by an insert, or the ID addressed by a
	// delete or move.
	ObjectID int
	// Err reports queries the engine could not execute (e.g. an object
	// query without an attached object querier, or an update against an
	// immutable one).
	Err error
}

// Errors returned in Result.Err.
var (
	// ErrNoObjectIndex is returned for kNN/range queries when the engine
	// was built without an object querier.
	ErrNoObjectIndex = errors.New("engine: no object querier attached (set Options.Objects)")
	// ErrImmutableObjects is returned for insert/delete/move queries when
	// the attached object querier does not implement
	// index.MutableObjectIndexer.
	ErrImmutableObjects = errors.New("engine: object querier does not support updates")
	// ErrUnknownKind is returned for queries with an invalid Kind.
	ErrUnknownKind = errors.New("engine: unknown query kind")
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of goroutines used by ExecuteBatch. Zero
	// selects GOMAXPROCS; one yields sequential execution.
	Workers int
	// Objects answers kNN and range queries; leave nil for a distance-only
	// engine.
	Objects index.ObjectQuerier
	// LatencySampleSize enables per-operation latency sampling: the engine
	// records the duration of every Execute into a fixed ring of this many
	// slots (rounded up to a power of two), overwriting the oldest samples.
	// Recording is one clock read and one atomic slot write — no allocation,
	// no locking — so it is safe to leave on in serving processes; zero
	// disables sampling entirely.
	LatencySampleSize int
	// WALDir enables the durable write-ahead log: every object update is
	// persisted to segment files under this directory and recovered on the
	// next start. Engines with a WAL must be built with Open (which runs
	// recovery); New refuses the option rather than silently serving
	// non-durably.
	WALDir string
	// WALOptions tunes the write-ahead log (fsync policy, segment size,
	// retry/backoff/probe behaviour). The Dir field is ignored — WALDir
	// wins. Only meaningful together with WALDir.
	WALOptions wal.Options
}

// Engine executes queries against one index. Its configuration is immutable
// after New and it is safe for concurrent use; when the attached object
// querier is mutable (index.MutableObjectIndexer), object updates may run
// concurrently with reads — including mixed within one batch.
type Engine struct {
	idx          index.Index
	objects      index.ObjectQuerier
	mutable      index.MutableObjectIndexer // nil when objects is immutable
	logged       index.ChangeLogger         // nil when the querier has no update log
	batcher      index.DistanceBatcher      // nil when the index has no batched distance path
	knnBatcher   index.KNNBatcher           // nil when the querier has no batched kNN path
	rangeBatcher index.RangeBatcher         // nil when the querier has no batched range path
	cacheRep     index.ClimbCacheReporter   // nil when the querier reports no climb cache
	workers      int
	wal          *wal.WAL // nil for non-durable engines; set by Open
	counts       [numKinds]atomic.Int64
	batched      [numKinds]atomic.Int64 // queries answered through batched index entry points
	lat          *latencyRing           // nil when sampling is disabled
}

// New returns an engine over the index. For a durable engine (a write-ahead
// log under Options.WALDir) use Open instead — New panics on the option,
// because accepting it without running recovery would silently drop the
// durability the caller asked for.
func New(idx index.Index, opts Options) *Engine {
	if opts.WALDir != "" {
		panic("engine: Options.WALDir requires engine.Open (New would silently skip WAL recovery)")
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	mut, _ := opts.Objects.(index.MutableObjectIndexer)
	logged, _ := opts.Objects.(index.ChangeLogger)
	e := &Engine{idx: idx, objects: opts.Objects, mutable: mut, logged: logged, workers: w}
	e.batcher, _ = idx.(index.DistanceBatcher)
	e.knnBatcher, _ = opts.Objects.(index.KNNBatcher)
	e.rangeBatcher, _ = opts.Objects.(index.RangeBatcher)
	e.cacheRep, _ = opts.Objects.(index.ClimbCacheReporter)
	if opts.LatencySampleSize > 0 {
		e.lat = newLatencyRing(opts.LatencySampleSize)
	}
	return e
}

// Index returns the underlying index.
func (e *Engine) Index() index.Index { return e.idx }

// Objects returns the attached object querier, or nil for a distance-only
// engine. Serving layers use it for introspection (object counts, epochs);
// queries should go through the typed entry points.
func (e *Engine) Objects() index.ObjectQuerier { return e.objects }

// Workers returns the batch parallelism of the engine.
func (e *Engine) Workers() int { return e.workers }

// Distance answers a shortest-distance query.
func (e *Engine) Distance(s, t model.Location) float64 {
	e.counts[KindDistance].Add(1)
	return e.idx.Distance(s, t)
}

// Path answers a shortest-path query.
func (e *Engine) Path(s, t model.Location) (float64, []model.DoorID) {
	e.counts[KindPath].Add(1)
	return e.idx.Path(s, t)
}

// KNN answers a k-nearest-neighbour query.
func (e *Engine) KNN(q model.Location, k int) ([]index.ObjectResult, error) {
	if e.objects == nil {
		return nil, ErrNoObjectIndex
	}
	e.counts[KindKNN].Add(1)
	return e.objects.KNN(q, k), nil
}

// Range answers a range query.
func (e *Engine) Range(q model.Location, r float64) ([]index.ObjectResult, error) {
	if e.objects == nil {
		return nil, ErrNoObjectIndex
	}
	e.counts[KindRange].Add(1)
	return e.objects.Range(q, r), nil
}

// Mutable returns the attached object querier's update capability, or nil
// when the engine has no object querier or an immutable one.
func (e *Engine) Mutable() index.MutableObjectIndexer { return e.mutable }

// ChangeLog returns the update log of the attached object querier, or nil
// when the querier does not route its mutations through one
// (index.ChangeLogger). Through it callers observe the applied-epoch lag
// (HeadSeq/PublishedSeq); the engine's update kinds are applied via this
// log, so its head counts exactly the updates the engine executed.
func (e *Engine) ChangeLog() *updatelog.Log {
	if e.logged == nil {
		return nil
	}
	return e.logged.ChangeLog()
}

// updatable reports whether object updates can be executed. A durable
// engine whose WAL is degraded rejects updates (they could not be made
// durable) while reads keep flowing.
func (e *Engine) updatable() error {
	if e.objects == nil {
		return ErrNoObjectIndex
	}
	if e.mutable == nil {
		return ErrImmutableObjects
	}
	if e.wal != nil && !e.wal.Healthy() {
		return wal.ErrDegradedReadOnly
	}
	return nil
}

// Insert adds an object to the attached object index and returns its ID.
func (e *Engine) Insert(loc model.Location) (int, error) {
	if err := e.updatable(); err != nil {
		return 0, err
	}
	e.counts[KindInsert].Add(1)
	return e.mutable.Insert(loc)
}

// Delete removes an object from the attached object index.
func (e *Engine) Delete(id int) error {
	if err := e.updatable(); err != nil {
		return err
	}
	e.counts[KindDelete].Add(1)
	return e.mutable.Delete(id)
}

// Move relocates an object of the attached object index.
func (e *Engine) Move(id int, loc model.Location) error {
	if err := e.updatable(); err != nil {
		return err
	}
	e.counts[KindMove].Add(1)
	return e.mutable.Move(id, loc)
}

// Execute runs a single query. With latency sampling enabled (see
// Options.LatencySampleSize) the operation's duration is recorded into the
// engine's sample ring.
func (e *Engine) Execute(q Query) Result {
	if e.lat != nil {
		start := time.Now()
		r := e.execute(q)
		e.lat.record(time.Since(start))
		return r
	}
	return e.execute(q)
}

func (e *Engine) execute(q Query) Result {
	switch q.Kind {
	case KindDistance:
		return Result{Dist: e.Distance(q.S, q.T)}
	case KindPath:
		d, doors := e.Path(q.S, q.T)
		return Result{Dist: d, Doors: doors}
	case KindKNN:
		objs, err := e.KNN(q.S, q.K)
		return Result{Objects: objs, Err: err}
	case KindRange:
		objs, err := e.Range(q.S, q.Radius)
		return Result{Objects: objs, Err: err}
	case KindInsert:
		id, err := e.Insert(q.S)
		return Result{ObjectID: id, Err: err}
	case KindDelete:
		return Result{ObjectID: q.ObjectID, Err: e.Delete(q.ObjectID)}
	case KindMove:
		return Result{ObjectID: q.ObjectID, Err: e.Move(q.ObjectID, q.S)}
	default:
		return Result{Err: ErrUnknownKind}
	}
}

// ExecuteBatch runs every query and returns the results in query order,
// fanning the work out over the engine's worker pool. The batch executes as
// maximal runs of reads and of object updates, in batch order, so every read
// sees exactly the updates that precede it in the batch. Within a read run,
// the queries a batch-capable index answers in one call
// (index.DistanceBatcher for distance queries, index.KNNBatcher/RangeBatcher
// for object queries) go through the batched query planner (planner.go):
// a distance segment fans its pairs over the index's workers, and kNN/range
// segments share source climbs; results are identical to per-query
// Execute. It is safe to call from multiple goroutines at once; each call
// uses its own pool.
//
// ExecuteBatch neither checks deadlines nor isolates panics — a serving
// front-end should use ExecuteBatchContext, which does both.
func (e *Engine) ExecuteBatch(queries []Query) []Result {
	return e.executeBatch(execCtx{}, queries)
}

// Stats reports the number of operations executed per kind since New: the
// four read kinds plus the three object-update kinds, the share of reads
// the planner routed through batched index entry points, and the climb
// cache counters of the attached object querier (when it reports one).
type Stats struct {
	Distance, Path, KNN, Range int64
	Insert, Delete, Move       int64
	// BatchedDistance/KNN/Range count the queries answered through the
	// index-level batched entry points (DistanceBatch/KNNBatch/RangeBatch)
	// by the planner; each is a subset of the matching kind counter above.
	BatchedDistance, BatchedKNN, BatchedRange int64
	// ClimbCacheHits/Misses/Bytes mirror the object querier's climb cache
	// (index.ClimbCacheReporter); zero when the querier reports none.
	ClimbCacheHits, ClimbCacheMisses uint64
	ClimbCacheBytes                  int64
}

// Total returns the total number of executed operations (reads and updates).
func (s Stats) Total() int64 { return s.Reads() + s.Updates() }

// Reads returns the number of executed read queries.
func (s Stats) Reads() int64 { return s.Distance + s.Path + s.KNN + s.Range }

// Updates returns the number of executed object updates.
func (s Stats) Updates() int64 { return s.Insert + s.Delete + s.Move }

// Stats returns a snapshot of the engine's query counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Distance:        e.counts[KindDistance].Load(),
		Path:            e.counts[KindPath].Load(),
		KNN:             e.counts[KindKNN].Load(),
		Range:           e.counts[KindRange].Load(),
		Insert:          e.counts[KindInsert].Load(),
		Delete:          e.counts[KindDelete].Load(),
		Move:            e.counts[KindMove].Load(),
		BatchedDistance: e.batched[KindDistance].Load(),
		BatchedKNN:      e.batched[KindKNN].Load(),
		BatchedRange:    e.batched[KindRange].Load(),
	}
	if e.cacheRep != nil {
		cc := e.cacheRep.ClimbCacheStats()
		s.ClimbCacheHits = cc.Hits
		s.ClimbCacheMisses = cc.Misses
		s.ClimbCacheBytes = cc.Bytes
	}
	return s
}
