// Package index defines the query interfaces implemented by every indoor
// index in this repository (IP-Tree, VIP-Tree, the distance matrix, the
// distance-aware model, G-tree and ROAD).
//
// The interfaces split the capability surface in two halves. The distance
// half (Index) answers point-to-point queries and exposes introspection;
// the object half (ObjectQuerier) answers kNN and range queries over a set
// of objects embedded into the index. Every index implements both halves:
// it satisfies Index directly and yields an ObjectQuerier from
// NewObjectQuerier (the ObjectIndexer interface). The query engine
// (viptree/internal/engine) takes the two halves separately: the Index,
// and the ObjectQuerier in its options.
//
// Indexes may additionally implement two optional capabilities, both pinned
// by conformance_test.go. Snapshotter exports the fully built state so
// viptree/internal/snapshot can persist it and restore it later without
// re-running construction; the IP-Tree and VIP-Tree implement it.
// MutableObjectIndexer marks object queriers whose object set can be
// mutated (Insert/Delete/Move) while queries are served; the IP-Tree and
// VIP-Tree object indexes implement it.
//
// The distance half of every implementation is immutable after construction
// and safe for concurrent queries from multiple goroutines; object queriers
// are likewise safe for concurrent queries, and the mutable ones also for
// queries concurrent with updates.
package index

import (
	"io"

	"viptree/internal/model"
	"viptree/internal/updatelog"
)

// DistanceQuerier answers shortest-distance and shortest-path queries
// between two indoor locations.
type DistanceQuerier interface {
	// Name identifies the index in benchmark output (e.g. "VIP-Tree").
	Name() string
	// Distance returns the length of the shortest indoor path from s to t.
	Distance(s, t model.Location) float64
	// Path returns the length of the shortest indoor path from s to t and
	// the sequence of doors it passes through (possibly empty when s and t
	// are in the same partition).
	Path(s, t model.Location) (float64, []model.DoorID)
}

// Stats is the uniform construction metadata reported by every index:
// the memory footprint plus index-specific structural details (for the
// tree indexes: ρ, fanout, node counts, …).
type Stats struct {
	// Name identifies the index the statistics describe.
	Name string
	// MemoryBytes estimates the memory footprint of the index structures.
	MemoryBytes int64
	// Details holds index-specific structural metrics keyed by a short
	// stable name (e.g. "nodes", "height", "avg_access_doors").
	Details map[string]float64
}

// Index is the distance half of the full capability surface: distance and
// path queries plus introspection. All six indexes implement it.
type Index interface {
	DistanceQuerier
	// MemoryBytes estimates the memory footprint of the index structures
	// (used for the Fig 8b index-size comparison).
	MemoryBytes() int64
	// Stats reports uniform construction metadata.
	Stats() Stats
}

// Snapshotter is an Index whose fully built state can be exported as a
// binary payload and later restored without re-running construction — the
// build-once / serve-many capability. The IP-Tree and VIP-Tree implement it
// (their construction cost is the paper's central trade-off); the expansion
// and matrix baselines do not, either because they have no built state worth
// persisting (DistAw) or because rebuilding is what the paper measures them
// on. Payloads are framed, checksummed and versioned by
// viptree/internal/snapshot; conformance_test.go pins down which indexes
// implement the capability.
type Snapshotter interface {
	Index
	// SnapshotKind returns the stable identifier of the payload schema
	// (e.g. "viptree/v1"), recorded in the snapshot container so that the
	// loader can dispatch — and reject — payloads it does not understand.
	SnapshotKind() string
	// EncodeSnapshot writes the index's built state to w as a
	// self-contained payload decodable by the matching restore function.
	EncodeSnapshot(w io.Writer) error
}

// LocationPair is one (source, target) input of a batched distance query.
type LocationPair struct {
	S, T model.Location
}

// DistanceBatcher is an Index that can answer many shortest-distance
// queries in one call over its own worker pool. The IP-Tree and VIP-Tree
// implement the capability by running each pair's Distance on the pool;
// conformance_test.go pins down the set.
type DistanceBatcher interface {
	Index
	// DistanceBatch computes Distance(p.S, p.T) for every pair p, writing
	// the results into out, which must be at least len(pairs) long.
	// Results are bit-identical to per-pair Distance calls and do not
	// depend on workers (<= 1 executes on the calling goroutine).
	DistanceBatch(pairs []LocationPair, out []float64, workers int)
}

// KNNQuery is one query of a batched kNN call: the query point and the
// result count.
type KNNQuery struct {
	Q model.Location
	K int
}

// RangeQuery is one query of a batched range call: the query point and the
// distance bound in metres.
type RangeQuery struct {
	Q model.Location
	R float64
}

// ObjectResult is one object returned by a kNN or range query.
type ObjectResult struct {
	// ObjectID is the position of the object in the object set passed to
	// the index.
	ObjectID int
	// Dist is the indoor distance from the query point to the object.
	Dist float64
}

// ObjectQuerier answers k-nearest-neighbour and range queries over a set of
// indexed objects.
type ObjectQuerier interface {
	// Name identifies the index in benchmark output.
	Name() string
	// KNN returns the k objects nearest to q in ascending distance order.
	KNN(q model.Location, k int) []ObjectResult
	// Range returns every object within distance r of q in ascending
	// distance order.
	Range(q model.Location, r float64) []ObjectResult
}

// KNNBatcher is an ObjectQuerier that can answer many kNN queries as one
// batch, amortising work shared between queries (for the tree indexes: the
// Algorithm-2 leaf-to-root climb of queries issued from the same source
// location, computed once per distinct source and reused across the batch).
// The IP-Tree and VIP-Tree object indexes implement the capability;
// conformance_test.go pins down the set.
type KNNBatcher interface {
	ObjectQuerier
	// KNNBatch computes KNN(q.Q, q.K) for every query q, writing each
	// result into the matching slot of out, which must be at least
	// len(queries) long. Results are bit-identical to per-query KNN calls
	// against one consistent state: the whole batch answers from a single
	// pinned epoch, and results do not depend on workers (<= 1 executes on
	// the calling goroutine).
	KNNBatch(queries []KNNQuery, out [][]ObjectResult, workers int)
}

// RangeBatcher is an ObjectQuerier that can answer many range queries as one
// batch; the sharing and consistency contract is that of KNNBatcher. The
// IP-Tree and VIP-Tree object indexes implement the capability;
// conformance_test.go pins down the set.
type RangeBatcher interface {
	ObjectQuerier
	// RangeBatch computes Range(q.Q, q.R) for every query q into out, which
	// must be at least len(queries) long, with the same bit-identity,
	// single-epoch and worker-independence guarantees as KNNBatch.
	RangeBatch(queries []RangeQuery, out [][]ObjectResult, workers int)
}

// ClimbCacheStats is a snapshot of the counters of a climb cache: the
// tree-lifetime cache of per-source climb tables consulted by the batched
// kNN/range path (see KNNBatcher).
type ClimbCacheStats struct {
	// Hits and Misses count cache lookups by batched queries.
	Hits, Misses uint64
	// Evictions counts entries displaced by the clock hand to admit new ones.
	Evictions uint64
	// Entries and Bytes describe the cache's current residency.
	Entries int
	Bytes   int64
	// Sweeps counts the leaf-to-root matrix sweep levels executed by batched
	// climb-table fills — cache hits execute none, which the instrumented
	// tests pin.
	Sweeps uint64
}

// ClimbCacheReporter is implemented by object queriers that maintain a climb
// cache and can report its counters (surfaced through engine.Stats and
// queryrunner output).
type ClimbCacheReporter interface {
	ClimbCacheStats() ClimbCacheStats
}

// ObjectIndexer is an Index that can embed a set of objects, yielding the
// object half of the capability surface. All six indexes implement it.
type ObjectIndexer interface {
	Index
	// NewObjectQuerier embeds the object set into the index and returns
	// the querier answering kNN and range queries over it. Object IDs are
	// the slice positions.
	NewObjectQuerier(objects []model.Location) ObjectQuerier
}

// MutableObjectIndexer is an ObjectQuerier whose embedded object set can be
// mutated in place while queries are being served: objects are inserted,
// deleted and moved with cost bounded by the affected part of the index
// (for the tree indexes: the leaf, or pair of leaves, containing the
// object) instead of a full rebuild. Implementations are safe for
// concurrent use — updates may run while kNN/Range queries are in flight.
//
// The IP-Tree and VIP-Tree object indexes implement the capability (their
// update locality is the paper's central advantage over G-tree-style
// indexes); the baselines do not, and a fleet movement on them forces a
// rebuild through NewObjectQuerier. conformance_test.go pins down the set.
type MutableObjectIndexer interface {
	ObjectQuerier
	// Insert adds an object at the location and returns its ID. IDs of
	// deleted objects may be reused.
	Insert(loc model.Location) (int, error)
	// Delete removes the object with the given ID.
	Delete(id int) error
	// Move relocates the object with the given ID.
	Move(id int, loc model.Location) error
	// NumObjects returns the number of live objects.
	NumObjects() int
}

// ChangeLogger is a MutableObjectIndexer whose mutations are funneled
// through a single-writer update log: every applied update gets a
// monotonic, gap-free sequence number, queries serve from immutable
// published epochs (lock-free reads), and the log hands each applied batch
// to its one follower, the write-ahead log of a durable engine. The
// IP-Tree and VIP-Tree object indexes implement the capability; the
// baselines do not (their object sets are rebuilt, not mutated).
// conformance_test.go pins down the set.
type ChangeLogger interface {
	MutableObjectIndexer
	// ChangeLog returns the update log behind the index.
	ChangeLog() *updatelog.Log
}
