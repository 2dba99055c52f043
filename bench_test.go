// Benchmarks reproducing the paper's evaluation (Section 4). Each
// BenchmarkTable*, BenchmarkFig* and BenchmarkAblation* row corresponds to a
// table or figure: its ns/op is the time the figure plots, and its
// b.ReportMetric columns carry the figure's other quantities (index sizes,
// ρ, door pairs per query, venue statistics). The venues are the small-scale
// presets so that `go test -bench=.` completes in minutes; the replicated and
// full-scale venues are reached through the -venue and -scale flags of
// cmd/venuegen, cmd/indexbuild and cmd/queryrunner.
package viptree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"viptree"
	"viptree/internal/bench"
	"viptree/internal/iptree"
	"viptree/internal/model"
)

// benchVenueSpecs lists the venues used by the benchmarks: the paper's MC and
// Men venues at small scale and the campus CL at tiny scale. The replicated
// -2 variants and the other scales are built by the commands' -venue and
// -scale flags instead.
var benchVenueSpecs = []struct {
	name  string
	build func() *viptree.Venue
}{
	{"MC", func() *viptree.Venue { return viptree.MelbourneCentral(viptree.ScaleSmall) }},
	{"Men", func() *viptree.Venue { return viptree.Menzies(viptree.ScaleSmall) }},
	{"CL", func() *viptree.Venue { return viptree.Clayton(viptree.ScaleTiny) }},
}

var (
	venueCache   = map[string]*viptree.Venue{}
	venueCacheMu sync.Mutex
)

func benchVenue(name string) *viptree.Venue {
	venueCacheMu.Lock()
	defer venueCacheMu.Unlock()
	if v, ok := venueCache[name]; ok {
		return v
	}
	for _, spec := range benchVenueSpecs {
		if spec.name == name {
			v := spec.build()
			venueCache[name] = v
			return v
		}
	}
	panic("unknown bench venue " + name)
}

// competitors builds the distance-query competitors over a venue, cached per
// venue so that repeated benchmarks do not rebuild the indexes.
type builtIndexes struct {
	ip     *viptree.IPTree
	vip    *viptree.VIPTree
	distAw *viptree.DistAware
	distMx *viptree.DistanceMatrix
	gtree  *viptree.GTree
	road   *viptree.Road
}

var (
	indexCache   = map[string]*builtIndexes{}
	indexCacheMu sync.Mutex
)

func benchIndexes(name string) *builtIndexes {
	indexCacheMu.Lock()
	defer indexCacheMu.Unlock()
	if b, ok := indexCache[name]; ok {
		return b
	}
	v := benchVenue(name)
	ip := viptree.MustBuildIPTree(v)
	b := &builtIndexes{
		ip:     ip,
		vip:    iptree.NewVIPTree(ip),
		distAw: viptree.NewDistAware(v),
		distMx: viptree.BuildDistanceMatrix(v),
		gtree:  viptree.BuildGTree(v, viptree.GTreeOptions{}),
		road:   viptree.BuildRoad(v, viptree.RoadOptions{}),
	}
	indexCache[name] = b
	return b
}

type distCompetitor struct {
	name string
	dist func(s, t viptree.Location) float64
	path func(s, t viptree.Location) (float64, []viptree.DoorID)
}

func distCompetitors(b *builtIndexes) []distCompetitor {
	return []distCompetitor{
		{"VIP-Tree", b.vip.Distance, b.vip.Path},
		{"IP-Tree", b.ip.Distance, b.ip.Path},
		{"DistMx", b.distMx.Distance, b.distMx.Path},
		{"DistAw", b.distAw.Distance, b.distAw.Path},
		{"G-tree", b.gtree.Distance, b.gtree.Path},
		{"ROAD", b.road.Distance, b.road.Path},
	}
}

// crossLeafPairs filters random query pairs down to those whose endpoints
// lie in different leaves of the tree: the indexed hot path (same-partition
// and same-leaf queries are answered by direct computation or from the
// leaf's door table).
func crossLeafPairs(v *viptree.Venue, tree *viptree.IPTree, n int, seed int64) []bench.QueryPair {
	var out []bench.QueryPair
	for attempt := int64(0); len(out) < n && attempt < 64; attempt++ {
		for _, p := range bench.Pairs(toModelVenue(v), n, seed+attempt) {
			if tree.Leaf(p.S.Partition) != tree.Leaf(p.T.Partition) {
				out = append(out, p)
				if len(out) == n {
					break
				}
			}
		}
	}
	return out
}

// sameLeafPairs keeps the pairs of a uniform sample of n whose endpoints lie
// in different partitions of one leaf: the queries the trees answer from the
// leaf's door table instead of their matrices, and that return doors from
// Path. On Men small, 687 of the 4,000 pairs of seed 11 qualify.
func sameLeafPairs(v *viptree.Venue, tree *viptree.IPTree, n int, seed int64) []bench.QueryPair {
	var out []bench.QueryPair
	for _, p := range bench.Pairs(toModelVenue(v), n, seed) {
		if p.S.Partition != p.T.Partition && tree.Leaf(p.S.Partition) == tree.Leaf(p.T.Partition) {
			out = append(out, p)
		}
	}
	return out
}

// leafRows runs one query function of every competitor as a cross-leaf row
// and a same-leaf row, side by side. Each row runs every pair once before
// the timer starts, so the same-leaf rows time the trees' warm door tables,
// not their first-use build (BenchmarkLeafTableFirstUse times that).
func leafRows(b *testing.B, idx *builtIndexes, query func(distCompetitor, bench.QueryPair)) {
	v := benchVenue("Men")
	rows := []struct {
		name  string
		pairs []bench.QueryPair
	}{
		{"cross-leaf", crossLeafPairs(v, idx.ip, 512, 42)},
		{"same-leaf", sameLeafPairs(v, idx.ip, 4000, 11)},
	}
	for _, comp := range distCompetitors(idx) {
		b.Run(comp.name, func(b *testing.B) {
			for _, row := range rows {
				b.Run(row.name, func(b *testing.B) {
					if len(row.pairs) == 0 {
						b.Skip("no pairs")
					}
					for _, p := range row.pairs {
						query(comp, p) // warm the scratch and the door tables
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						query(comp, row.pairs[i%len(row.pairs)])
					}
				})
			}
		})
	}
}

// BenchmarkDistance measures the warm shortest-distance hot path of every
// index on cross-leaf and on same-leaf pairs, with allocation statistics:
// the VIP-Tree and IP-Tree rows must report 0 allocs/op in both (their
// scratch is recycled dense slices; see internal/iptree/scratch.go and the
// regression tests TestVIPDistanceZeroAlloc and
// TestVIPDistanceZeroAllocAnyPair). The trees' same-leaf rows time reads of
// the leaf's door table (internal/iptree/leaftable.go).
func BenchmarkDistance(b *testing.B) {
	leafRows(b, benchIndexes("Men"), func(c distCompetitor, p bench.QueryPair) { c.dist(p.S, p.T) })
}

// BenchmarkPath measures the warm shortest-path hot path of every index on
// cross-leaf and on same-leaf pairs, with allocation statistics: the
// VIP-Tree and IP-Tree rows must report 1 alloc/op — the returned door
// slice — with the partial path, via-chain unwind, Algorithm-4 expansion and
// the same-leaf in-leaf search all running on recycled scratch (see
// internal/iptree/path.go, internal/iptree/leaftable.go and the regression
// tests TestIPPathAllocsResultSliceOnly / TestVIPPathAllocsResultSliceOnly).
func BenchmarkPath(b *testing.B) {
	leafRows(b, benchIndexes("Men"), func(c distCompetitor, p bench.QueryPair) { c.path(p.S, p.T) })
}

// BenchmarkEngineThroughput measures aggregate engine throughput (QPS) for
// the single-threaded execution path and the parallel paths (RunParallel
// per-call fan-in and the batch worker pool). On a multi-core machine the
// parallel rows report higher qps than the sequential row, since the warm
// query path allocates nothing and the indexes are contention-free.
func BenchmarkEngineThroughput(b *testing.B) {
	v := benchVenue("Men")
	idx := benchIndexes("Men")
	pairs := bench.Pairs(toModelVenue(v), 4096, 21)
	queries := make([]viptree.Query, len(pairs))
	for i, p := range pairs {
		queries[i] = viptree.Query{Kind: viptree.QueryDistance, S: p.S, T: p.T}
	}
	eng := viptree.NewEngine(idx.vip, viptree.EngineOptions{})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Execute(queries[i%len(queries)])
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				eng.Execute(queries[i%len(queries)])
				i++
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		done := 0
		for i := 0; i < b.N; i++ {
			eng.ExecuteBatch(queries)
			done += len(queries)
		}
		b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "qps")
	})
}

// batchedBenchWorkloads returns the two workloads of the batched-distance
// benchmarks: clustered sources (few distinct sources, many targets — the
// workload the shared-fold planner amortises) and uniform pairs (every
// endpoint distinct — the planner's worst case, where only the folded
// pairing sweep and duplicate-endpoint elimination help). Both are filtered
// to cross-leaf pairs, the indexed hot path, exactly like BenchmarkDistance:
// same-partition and same-leaf queries are answered by direct computation or
// from the leaf's door table whether batched or not, and would only add
// identical noise to both sides of the comparison.
func batchedBenchWorkloads(v *viptree.Venue, tree *viptree.IPTree) []struct {
	name  string
	pairs []viptree.LocationPair
} {
	const n = 1024
	crossLeaf := func(qp []bench.QueryPair) []viptree.LocationPair {
		out := make([]viptree.LocationPair, 0, n)
		for _, p := range qp {
			if tree.Leaf(p.S.Partition) != tree.Leaf(p.T.Partition) {
				out = append(out, viptree.LocationPair{S: p.S, T: p.T})
				if len(out) == n {
					break
				}
			}
		}
		return out
	}
	return []struct {
		name  string
		pairs []viptree.LocationPair
	}{
		{"clustered", crossLeaf(bench.ClusteredPairs(toModelVenue(v), 8*n, 8, 33))},
		{"uniform", crossLeaf(bench.Pairs(toModelVenue(v), 8*n, 34))},
	}
}

// BenchmarkBatchedDistance measures the index-level batched distance path
// (DistanceBatch) against the per-pair Distance loop on both trees, for
// clustered-source and uniform workloads. One op is one full batch; the qps
// metric is pairs answered per second. DistanceBatch runs each pair's own
// Distance over the worker pool, so the batch rows differ from the loop
// rows by the fan-out alone, and allocs/op stays flat (the pool's
// goroutines; each Distance is allocation-free).
func BenchmarkBatchedDistance(b *testing.B) {
	idx := benchIndexes("Men")
	v := benchVenue("Men")
	workers := runtime.GOMAXPROCS(0)
	batchers := []struct {
		name string
		ix   viptree.DistanceBatcher
	}{
		{"VIP", idx.vip},
		{"IP", idx.ip},
	}
	for _, bt := range batchers {
		for _, w := range batchedBenchWorkloads(v, idx.ip) {
			b.Run(bt.name+"/"+w.name+"/batch", func(b *testing.B) {
				out := make([]float64, len(w.pairs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bt.ix.DistanceBatch(w.pairs, out, workers)
				}
				b.ReportMetric(float64(b.N*len(w.pairs))/b.Elapsed().Seconds(), "qps")
			})
			b.Run(bt.name+"/"+w.name+"/loop", func(b *testing.B) {
				out := make([]float64, len(w.pairs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k, p := range w.pairs {
						out[k] = bt.ix.Distance(p.S, p.T)
					}
				}
				b.ReportMetric(float64(b.N*len(w.pairs))/b.Elapsed().Seconds(), "qps")
			})
		}
	}
}

// BenchmarkExecuteBatch measures end-to-end engine batch throughput on
// distance batches, at the default worker count. One op is one full
// ExecuteBatch; the qps metric is queries answered per second. The
// clustered and uniform rows are the cross-leaf batches of
// BenchmarkBatchedDistance, whose loop rows are their per-query baseline
// (the engine has one batch executor, so there is no unbatched engine row).
// The Men-full row has the shape of one servebench coalesced request: 256
// uniform pairs on the full-scale Menzies venue, 18 of them (7 %) with both
// ends in one leaf, which read the leaf's door table.
func BenchmarkExecuteBatch(b *testing.B) {
	idx := benchIndexes("Men")
	v := benchVenue("Men")
	eng := viptree.NewEngine(idx.vip, viptree.EngineOptions{})
	run := func(name string, eng *viptree.Engine, pairs []viptree.LocationPair) {
		queries := make([]viptree.Query, len(pairs))
		for i, p := range pairs {
			queries[i] = viptree.Query{Kind: viptree.QueryDistance, S: p.S, T: p.T}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.ExecuteBatch(queries)
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
		})
	}
	for _, w := range batchedBenchWorkloads(v, idx.ip) {
		run(w.name, eng, w.pairs)
	}
	full := menFullTree()
	var coalesced []viptree.LocationPair
	for _, p := range bench.Pairs(toModelVenue(full.Venue()), 256, 39) {
		coalesced = append(coalesced, viptree.LocationPair{S: p.S, T: p.T})
	}
	run("Men-full", viptree.NewEngine(full, viptree.EngineOptions{}), coalesced)
}

// Full-scale Menzies VIP-Tree shared by the object-query benchmarks: built
// once, outside benchVenueSpecs, so the venue-sweeping benchmarks never
// construct full-scale baselines.
var (
	menFullTreeOnce sync.Once
	menFullVip      *viptree.VIPTree
)

func menFullTree() *viptree.VIPTree {
	menFullTreeOnce.Do(func() { menFullVip = viptree.MustBuildVIPTree(viptree.Menzies(viptree.ScaleFull)) })
	return menFullVip
}

// Batched fixture on the full-scale tree, reused across BenchmarkBatchedKNN
// and BenchmarkBatchedRange: 1000 objects and two 1024-query workloads.
var (
	menFullOnce sync.Once
	menFullOI   *viptree.ObjectIndex
	menFullWork []struct {
		name   string
		points []viptree.Location
	}
)

func menFullObjects() (*viptree.VIPTree, *viptree.ObjectIndex) {
	menFullOnce.Do(func() {
		tree := menFullTree()
		v := tree.Venue()
		menFullOI = tree.IndexObjects(bench.Objects(toModelVenue(v), 1000, 7))
		const n = 1024
		hot := bench.Points(toModelVenue(v), 8, 22)
		clustered := make([]viptree.Location, n)
		for i := range clustered {
			clustered[i] = hot[i%len(hot)]
		}
		menFullWork = []struct {
			name   string
			points []viptree.Location
		}{
			{"clustered", clustered},
			{"uniform", bench.Points(toModelVenue(v), n, 21)},
		}
	})
	return menFullVip, menFullOI
}

// BenchmarkBatchedKNN measures the index-level batched kNN path (KNNBatch)
// against the per-query KNN loop on the full-scale Menzies venue, for
// clustered sources (8 distinct points tiled to 1024 — the hot-lobby
// workload the shared climbs and the climb cache amortise) and uniform
// sources (1024 distinct points — the worst case, where only intra-batch
// sharing helps). One op is one full batch; the qps metric is queries
// answered per second. The acceptance bar is the clustered batch row at
// ≥2× the clustered loop row; cache=off isolates what the tree-lifetime
// climb cache adds on top of intra-batch climb sharing.
func BenchmarkBatchedKNN(b *testing.B) {
	tree, oi := menFullObjects()
	workers := runtime.GOMAXPROCS(0)
	for _, w := range menFullWork {
		queries := make([]viptree.KNNQuery, len(w.points))
		for i, p := range w.points {
			queries[i] = viptree.KNNQuery{Q: p, K: 5}
		}
		out := make([][]viptree.ObjectResult, len(queries))
		for _, cache := range []string{"on", "off"} {
			b.Run(w.name+"/batch/cache="+cache, func(b *testing.B) {
				if cache == "off" {
					tree.SetClimbCacheCapacity(0)
					defer tree.SetClimbCacheCapacity(-1) // back to the default
				} else {
					tree.SetClimbCacheCapacity(-1) // drop entries left by other runs
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					oi.KNNBatch(queries, out, workers)
				}
				b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
			})
		}
		b.Run(w.name+"/loop", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					out[0] = oi.KNN(q.Q, q.K)
				}
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
		})
	}
}

// BenchmarkBatchedRange is the range counterpart of BenchmarkBatchedKNN:
// RangeBatch against the per-query Range loop on the same full-scale
// fixture and workloads, sharing the climb cache with the kNN benchmark.
func BenchmarkBatchedRange(b *testing.B) {
	tree, oi := menFullObjects()
	workers := runtime.GOMAXPROCS(0)
	for _, w := range menFullWork {
		queries := make([]viptree.RangeQuery, len(w.points))
		for i, p := range w.points {
			queries[i] = viptree.RangeQuery{Q: p, R: 100}
		}
		out := make([][]viptree.ObjectResult, len(queries))
		for _, cache := range []string{"on", "off"} {
			b.Run(w.name+"/batch/cache="+cache, func(b *testing.B) {
				if cache == "off" {
					tree.SetClimbCacheCapacity(0)
					defer tree.SetClimbCacheCapacity(-1)
				} else {
					tree.SetClimbCacheCapacity(-1)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					oi.RangeBatch(queries, out, workers)
				}
				b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
			})
		}
		b.Run(w.name+"/loop", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					out[0] = oi.Range(q.Q, q.R)
				}
			}
			b.ReportMetric(float64(b.N*len(queries))/b.Elapsed().Seconds(), "qps")
		})
	}
}

// objectRows times one warm object query per op on the VIP-Tree over two
// fixtures. Men-small holds 50 objects and 128 query points on the
// small-scale Menzies venue. Men-full is servebench's shape: 250 objects of
// seed 7 and 256 points of seed 21 on the full-scale venue, whose leaves
// hold up to 109 doors; the query's own leaf is scanned through the leaf's
// door table.
func objectRows(b *testing.B, query func(oi *viptree.ObjectIndex, q viptree.Location)) {
	rows := []struct {
		name    string
		fixture func() (*viptree.ObjectIndex, []viptree.Location)
	}{
		{"Men-small", func() (*viptree.ObjectIndex, []viptree.Location) {
			v := benchVenue("Men")
			oi := benchIndexes("Men").vip.IndexObjects(bench.Objects(toModelVenue(v), 50, 18))
			return oi, bench.Points(toModelVenue(v), 128, 17)
		}},
		{"Men-full", func() (*viptree.ObjectIndex, []viptree.Location) {
			tree := menFullTree()
			v := toModelVenue(tree.Venue())
			return tree.IndexObjects(bench.Objects(v, 250, 7)), bench.Points(v, 256, 21)
		}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			oi, points := row.fixture()
			for _, q := range points {
				query(oi, q) // warm the scratch
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(oi, points[i%len(points)])
			}
		})
	}
}

// BenchmarkKNN measures the warm kNN hot path (Algorithm 5, k = 5) on the
// VIP-Tree with allocation statistics: the warm path must report 1 alloc/op
// — the returned result slice — with all traversal state in recycled
// epoch-stamped dense scratch (see internal/iptree/scratch.go and the
// regression test TestKNNAllocsResultSliceOnly).
func BenchmarkKNN(b *testing.B) {
	objectRows(b, func(oi *viptree.ObjectIndex, q viptree.Location) { oi.KNN(q, 5) })
}

// BenchmarkRange is BenchmarkKNN's counterpart for the warm range query
// (r = 100 m), also at 1 alloc/op (TestRangeAllocsResultSliceOnly).
func BenchmarkRange(b *testing.B) {
	objectRows(b, func(oi *viptree.ObjectIndex, q viptree.Location) { oi.Range(q, 100) })
}

// BenchmarkLeafTableFirstUse times the door-table builds a restored tree
// pays on its first same-leaf queries, the work kept out of the build and
// the restore. Each op restores the Men-full VIP-Tree from snapshot bytes
// with the timer stopped, so it holds no table, then times one same-leaf
// Distance in each of its 14 leaves: every query builds its leaf's table.
func BenchmarkLeafTableFirstUse(b *testing.B) {
	b.Run("Men-full", func(b *testing.B) {
		tree := menFullTree()
		v := tree.Venue()
		var buf bytes.Buffer
		if err := viptree.WriteSnapshot(&buf, v, tree, nil); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		// The first same-leaf pair of each leaf in a uniform sample.
		var pairs []bench.QueryPair
		seen := map[iptree.NodeID]bool{}
		for _, p := range bench.Pairs(toModelVenue(v), 4000, 11) {
			leaf := tree.Leaf(p.S.Partition)
			if p.S.Partition != p.T.Partition && leaf == tree.Leaf(p.T.Partition) && !seen[leaf] {
				seen[leaf] = true
				pairs = append(pairs, p)
			}
		}
		if len(pairs) != tree.NumLeaves() {
			b.Fatalf("same-leaf pairs cover %d of %d leaves", len(pairs), tree.NumLeaves())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := viptree.ReadSnapshot(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, p := range pairs {
				s.VIP.Distance(p.S, p.T)
			}
		}
	})
}

// BenchmarkKNNUnderChurn measures warm kNN latency while a background
// goroutine saturates the single-writer update log with moves: the
// lock-free epoch read path should keep query cost close to the quiescent
// BenchmarkKNN number, because readers only pay one atomic pointer load to
// pin an epoch regardless of write traffic. Caveats when reading the
// output: the reported allocs/op include the writer goroutine's
// copy-on-write allocations (Go benchmarks attribute all allocation during
// the timed window), and on a single-CPU machine ns/op roughly doubles
// from timesharing with the saturating writer — neither is read-path
// contention.
func BenchmarkKNNUnderChurn(b *testing.B) {
	v := benchVenue("Men")
	idx := benchIndexes("Men")
	points := bench.Points(toModelVenue(v), 128, 17)
	objs := bench.Objects(toModelVenue(v), 50, 18)
	locs := bench.Points(toModelVenue(v), 1024, 19)
	oi := idx.vip.IndexObjects(objs)
	for _, q := range points {
		oi.KNN(q, 5) // warm the scratch pool
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := oi.Move(i%len(objs), locs[i%len(locs)]); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oi.KNN(points[i%len(points)], 5)
	}
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkObjectUpdate measures the object-update path of the mutable
// object layer on the full-scale Menzies venue: "move" relocates one object
// on a built index (touching only the source and target leaves), "rebuild"
// re-embeds the entire object set the way an immutable index would have to
// after any fleet movement. The ns/op ratio between the two rows is the
// paper's update-locality advantage; the acceptance bar is move being more
// than an order of magnitude faster than rebuild. A sequential move pays
// the full epoch publish (two O(nodes) spine copies) on every op — the
// worst case for the single-writer log, which amortises the publish across
// a batch when updaters run concurrently.
func BenchmarkObjectUpdate(b *testing.B) {
	// The paper-scale venue is built here, not via benchVenueSpecs, so the
	// venue-sweeping benchmarks do not start constructing full-scale
	// baseline indexes.
	v := viptree.Menzies(viptree.ScaleFull)
	tree := viptree.MustBuildVIPTree(v)
	objs := bench.Objects(toModelVenue(v), 1000, 7)
	locs := bench.Points(toModelVenue(v), 4096, 8)
	b.Run("Men-full/move", func(b *testing.B) {
		oi := tree.IndexObjects(objs)
		// Warm up: let the per-leaf backing arrays reach steady-state
		// capacity, so the timed moves allocate only the copy-on-write
		// clones of the touched leaves and the published epoch.
		for i := 0; i < 512; i++ {
			if err := oi.Move(i%len(objs), locs[(i*7)%len(locs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := oi.Move(i%len(objs), locs[i%len(locs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "moves/s")
	})
	b.Run("Men-full/rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tree.IndexObjects(objs)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rebuilds/s")
	})
}

// BenchmarkEngineMixed measures engine throughput on an HTAP-style mixed
// workload: 90% kNN reads, 10% object moves, executed sequentially and over
// the batch worker pool. Moves funnel through the single-writer update log
// while reads serve lock-free from the published epoch, so the qps/ups
// split shows how little the write stream taxes the read path.
func BenchmarkEngineMixed(b *testing.B) {
	v := benchVenue("Men")
	idx := benchIndexes("Men")
	objs := bench.Objects(toModelVenue(v), 100, 9)
	points := bench.Points(toModelVenue(v), 4096, 10)
	rng := rand.New(rand.NewSource(11))
	ops := make([]viptree.Query, 4096)
	for i := range ops {
		if rng.Float64() < 0.10 {
			ops[i] = viptree.Query{Kind: viptree.QueryMove, ObjectID: rng.Intn(len(objs)), S: points[i]}
		} else {
			ops[i] = viptree.Query{Kind: viptree.QueryKNN, S: points[i], K: 5}
		}
	}
	reportMix := func(b *testing.B, eng *viptree.Engine) {
		s := eng.Stats()
		b.ReportMetric(float64(s.Reads())/b.Elapsed().Seconds(), "qps")
		b.ReportMetric(float64(s.Updates())/b.Elapsed().Seconds(), "ups")
	}
	b.Run("90-10/sequential", func(b *testing.B) {
		eng := viptree.NewEngine(idx.vip, viptree.EngineOptions{Objects: idx.vip.IndexObjects(objs)})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := eng.Execute(ops[i%len(ops)]); r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		reportMix(b, eng)
	})
	b.Run("90-10/batch", func(b *testing.B) {
		eng := viptree.NewEngine(idx.vip, viptree.EngineOptions{Objects: idx.vip.IndexObjects(objs)})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range eng.ExecuteBatch(ops) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		reportMix(b, eng)
	})
}

// BenchmarkTreeBuild measures full VIP-Tree construction from scratch: the
// cold-start cost a serving process pays when it does NOT load a snapshot.
// Compare against BenchmarkSnapshotLoad, which restores the identical index
// from its serialized form.
func BenchmarkTreeBuild(b *testing.B) {
	v := benchVenue("Men")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		viptree.MustBuildVIPTree(v)
	}
}

// BenchmarkTreeBuildParallelism measures VIP-Tree construction at explicit
// worker counts. The per-node/per-door build work is embarrassingly parallel
// (the determinism property test pins that results are bit-identical), so on
// a multi-core machine the higher-worker rows build proportionally faster;
// on a single-core CI container they only measure the worker-pool overhead.
func BenchmarkTreeBuildParallelism(b *testing.B) {
	v := benchVenue("Men")
	counts := []int{1, 2, 4}
	if procs := runtime.GOMAXPROCS(0); procs != 1 && procs != 2 && procs != 4 {
		counts = append(counts, procs)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := viptree.BuildVIPTreeWithOptions(v, viptree.TreeOptions{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad measures restoring the same VIP-Tree from an
// in-memory snapshot (header validation, checksum, venue reconstruction and
// index restore — everything queryrunner -load does except the file read).
// The ratio to BenchmarkTreeBuild is the cold-start win of the build-once /
// serve-many pipeline; README records the measured numbers.
func BenchmarkSnapshotLoad(b *testing.B) {
	v := benchVenue("Men")
	vip := viptree.MustBuildVIPTree(v)
	var buf bytes.Buffer
	if err := viptree.WriteSnapshot(&buf, v, vip, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := viptree.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if s.VIP == nil {
			b.Fatal("no VIP-Tree in snapshot")
		}
	}
}

// BenchmarkTable1Stats measures IP-Tree construction plus the structural
// statistics of Table 1 on every bench venue, and reports them: doors D,
// leaves M, height, average and maximum access doors (ρ), average fanout f,
// and average and maximum superior doors.
func BenchmarkTable1Stats(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		v := benchVenue(spec.name)
		b.Run(spec.name, func(b *testing.B) {
			b.ReportAllocs()
			var s viptree.TreeStats
			for i := 0; i < b.N; i++ {
				s = viptree.MustBuildIPTree(v).TreeStats()
				if s.Leaves == 0 {
					b.Fatal("no leaves")
				}
			}
			b.ReportMetric(float64(v.NumDoors()), "Doors")
			b.ReportMetric(float64(s.Leaves), "Leaves")
			b.ReportMetric(float64(s.Height), "Height")
			b.ReportMetric(s.AvgAccessDoors, "AvgAccessDoors")
			b.ReportMetric(float64(s.MaxAccessDoors), "MaxAccessDoors")
			b.ReportMetric(s.AvgFanout, "AvgFanout")
			b.ReportMetric(s.AvgSuperiorDoors, "AvgSuperiorDoors")
			b.ReportMetric(float64(s.MaxSuperiorDoors), "MaxSuperiorDoors")
		})
	}
}

// BenchmarkTable2VenueGeneration measures synthetic venue generation and the
// Table 2 statistics computation, and reports each venue's statistics:
// doors, rooms (partitions), D2D edges, floors and maximum out-degree.
func BenchmarkTable2VenueGeneration(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		b.Run(spec.name, func(b *testing.B) {
			b.ReportAllocs()
			var s viptree.VenueStats
			for i := 0; i < b.N; i++ {
				s = spec.build().ComputeStats()
				if s.Doors == 0 {
					b.Fatal("empty venue")
				}
			}
			b.ReportMetric(float64(s.Doors), "Doors")
			b.ReportMetric(float64(s.Partitions), "Partitions")
			b.ReportMetric(float64(s.D2DEdges), "D2DEdges")
			b.ReportMetric(float64(s.Floors), "Floors")
			b.ReportMetric(float64(s.MaxOutDegree), "MaxOutDegree")
		})
	}
}

// fig7Degrees are the minimum degrees t that Fig 7 evaluates.
var fig7Degrees = []int{2, 10, 20, 60, 100}

// BenchmarkFig7MinDegree measures VIP-Tree construction for the minimum
// degrees evaluated in Fig 7a and reports the built tree's MemoryBytes.
func BenchmarkFig7MinDegree(b *testing.B) {
	v := benchVenue("CL")
	for _, t := range fig7Degrees {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			b.ReportAllocs()
			var vip *viptree.VIPTree
			for i := 0; i < b.N; i++ {
				vip = viptree.MustBuildVIPTreeWithDegree(v, t)
			}
			b.StopTimer()
			b.ReportMetric(float64(vip.MemoryBytes()), "MemoryBytes")
		})
	}
}

// BenchmarkFig7QueryVsMinDegree measures shortest-distance and kNN query time
// for varying minimum degree (Fig 7b).
func BenchmarkFig7QueryVsMinDegree(b *testing.B) {
	v := benchVenue("CL")
	pairs := bench.Pairs(toModelVenue(v), 256, 1)
	points := bench.Points(toModelVenue(v), 64, 2)
	objs := bench.Objects(toModelVenue(v), 50, 3)
	for _, t := range fig7Degrees {
		vip := viptree.MustBuildVIPTreeWithDegree(v, t)
		oi := vip.IndexObjects(objs)
		b.Run(fmt.Sprintf("distance/t=%d", t), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				vip.Distance(p.S, p.T)
			}
		})
		b.Run(fmt.Sprintf("knn/t=%d", t), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				oi.KNN(points[i%len(points)], 5)
			}
		})
	}
}

// BenchmarkFig8Construction measures index construction time for every index
// (Fig 8a) and reports the built index's MemoryBytes, the index size of
// Fig 8b.
func BenchmarkFig8Construction(b *testing.B) {
	v := benchVenue("MC")
	builds := []struct {
		name  string
		build func() viptree.Index
	}{
		{"IP-Tree", func() viptree.Index { return viptree.MustBuildIPTree(v) }},
		{"VIP-Tree", func() viptree.Index { return viptree.MustBuildVIPTree(v) }},
		{"DistMx", func() viptree.Index { return viptree.BuildDistanceMatrix(v) }},
		{"DistAw", func() viptree.Index { return viptree.NewDistAware(v) }},
		{"G-tree", func() viptree.Index { return viptree.BuildGTree(v, viptree.GTreeOptions{}) }},
		{"ROAD", func() viptree.Index { return viptree.BuildRoad(v, viptree.RoadOptions{}) }},
	}
	for _, bd := range builds {
		b.Run(bd.name, func(b *testing.B) {
			b.ReportAllocs()
			var ix viptree.Index
			for i := 0; i < b.N; i++ {
				ix = bd.build()
			}
			b.StopTimer()
			b.ReportMetric(float64(ix.MemoryBytes()), "MemoryBytes")
		})
	}
}

// BenchmarkFig9aPairs measures shortest-distance queries of DistMx with and
// without the no-through-door optimisation and of the VIP-Tree, and reports
// the door pairs each considers per query (Fig 9a) as AvgPairsPerQuery: the
// matrices count the candidate pairs they enumerate, and the VIP-Tree
// considers |SUP(P(s))|·|SUP(P(t))| superior-door pairs.
func BenchmarkFig9aPairs(b *testing.B) {
	v := benchVenue("Men")
	pairs := bench.Pairs(toModelVenue(v), 512, 4)
	for _, m := range []struct {
		name string
		mx   *viptree.DistanceMatrix
	}{
		{"DistMx", viptree.BuildDistanceMatrix(v)},
		{"DistMx--", viptree.BuildDistanceMatrixNoOpt(v)},
	} {
		// One untimed pass over the pairs, on the fresh counters, so the
		// average covers the whole pair set at any -benchtime.
		for _, p := range pairs {
			m.mx.Distance(p.S, p.T)
		}
		avgPairs := m.mx.AvgPairsPerQuery()
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				m.mx.Distance(p.S, p.T)
			}
			b.ReportMetric(avgPairs, "AvgPairsPerQuery")
		})
	}
	vip := viptree.MustBuildVIPTree(v)
	var supPairs float64
	for _, p := range pairs {
		supPairs += float64(len(vip.SuperiorDoors(p.S.Partition)) * len(vip.SuperiorDoors(p.T.Partition)))
	}
	b.Run("VIP-Tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			vip.Distance(p.S, p.T)
		}
		b.ReportMetric(supPairs/float64(len(pairs)), "AvgPairsPerQuery")
	})
}

// BenchmarkFig9bShortestDistance measures shortest-distance query time for
// every algorithm and venue (Fig 9b).
func BenchmarkFig9bShortestDistance(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		idx := benchIndexes(spec.name)
		pairs := bench.Pairs(toModelVenue(benchVenue(spec.name)), 512, 5)
		for _, comp := range distCompetitors(idx) {
			b.Run(spec.name+"/"+comp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					comp.dist(p.S, p.T)
				}
			})
		}
	}
}

// BenchmarkFig10aShortestPath measures shortest-path query time for every
// algorithm and venue (Fig 10a).
func BenchmarkFig10aShortestPath(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		idx := benchIndexes(spec.name)
		pairs := bench.Pairs(toModelVenue(benchVenue(spec.name)), 512, 6)
		for _, comp := range distCompetitors(idx) {
			b.Run(spec.name+"/"+comp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					comp.path(p.S, p.T)
				}
			})
		}
	}
}

// BenchmarkFig10bDistanceEffect measures shortest-path query time per
// source-target distance bucket Q1..Q5 (Fig 10b) for every index.
func BenchmarkFig10bDistanceEffect(b *testing.B) {
	idx := benchIndexes("Men")
	buckets := bench.BucketedPairs(toModelVenue(benchVenue("Men")), 5, 64, 7)
	comps := distCompetitors(idx)
	for bi, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		for _, comp := range comps {
			b.Run(fmt.Sprintf("Q%d/%s", bi+1, comp.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					p := bucket[i%len(bucket)]
					comp.path(p.S, p.T)
				}
			})
		}
	}
}

// objectCompetitors builds kNN/range query functions per index.
func objectCompetitors(name string, objs []model.Location) []struct {
	name string
	knn  func(q viptree.Location, k int) int
	rng  func(q viptree.Location, r float64) int
} {
	idx := benchIndexes(name)
	ipOI := idx.ip.IndexObjects(objs)
	vipOI := idx.vip.IndexObjects(objs)
	daOI := viptree.NewDistAware(benchVenue(name)).IndexObjects(objs)
	dmOI := idx.distMx.IndexObjects(objs)
	gtOI := idx.gtree.IndexObjects(objs)
	rdOI := idx.road.IndexObjects(objs)
	return []struct {
		name string
		knn  func(q viptree.Location, k int) int
		rng  func(q viptree.Location, r float64) int
	}{
		{"VIP-Tree", func(q viptree.Location, k int) int { return len(vipOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(vipOI.Range(q, r)) }},
		{"IP-Tree", func(q viptree.Location, k int) int { return len(ipOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(ipOI.Range(q, r)) }},
		{"DistAw", func(q viptree.Location, k int) int { return len(daOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(daOI.Range(q, r)) }},
		{"DistAw++", func(q viptree.Location, k int) int { return len(dmOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(dmOI.Range(q, r)) }},
		{"G-tree", func(q viptree.Location, k int) int { return len(gtOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(gtOI.Range(q, r)) }},
		{"ROAD", func(q viptree.Location, k int) int { return len(rdOI.KNN(q, k)) }, func(q viptree.Location, r float64) int { return len(rdOI.Range(q, r)) }},
	}
}

// BenchmarkFig11akNN measures kNN query time for k in {1, 5, 10} (Fig 11a).
func BenchmarkFig11akNN(b *testing.B) {
	v := benchVenue("Men")
	points := bench.Points(toModelVenue(v), 128, 8)
	objs := bench.Objects(toModelVenue(v), 50, 9)
	comps := objectCompetitors("Men", objs)
	for _, k := range []int{1, 5, 10} {
		for _, comp := range comps {
			b.Run(fmt.Sprintf("k=%d/%s", k, comp.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comp.knn(points[i%len(points)], k)
				}
			})
		}
	}
}

// BenchmarkFig11bObjects measures kNN query time for object sets of 10 to 500
// objects (Fig 11b) for every index.
func BenchmarkFig11bObjects(b *testing.B) {
	v := benchVenue("Men")
	points := bench.Points(toModelVenue(v), 128, 10)
	for _, n := range []int{10, 50, 100, 500} {
		objs := bench.Objects(toModelVenue(v), n, int64(100+n))
		for _, comp := range objectCompetitors("Men", objs) {
			b.Run(fmt.Sprintf("n=%d/%s", n, comp.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comp.knn(points[i%len(points)], 5)
				}
			})
		}
	}
}

// BenchmarkFig11cVenues measures kNN query time across venues (Fig 11c).
func BenchmarkFig11cVenues(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		v := benchVenue(spec.name)
		points := bench.Points(toModelVenue(v), 128, 11)
		objs := bench.Objects(toModelVenue(v), 50, 12)
		for _, comp := range objectCompetitors(spec.name, objs) {
			b.Run(spec.name+"/"+comp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comp.knn(points[i%len(points)], 5)
				}
			})
		}
	}
}

// BenchmarkFig11dRange measures range query time across venues (Fig 11d).
func BenchmarkFig11dRange(b *testing.B) {
	for _, spec := range benchVenueSpecs {
		v := benchVenue(spec.name)
		points := bench.Points(toModelVenue(v), 128, 13)
		objs := bench.Objects(toModelVenue(v), 50, 14)
		for _, comp := range objectCompetitors(spec.name, objs) {
			b.Run(spec.name+"/"+comp.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comp.rng(points[i%len(points)], 100)
				}
			})
		}
	}
}

// ablationRow times shortest-distance queries over the pairs on one tree
// variant and reports the variant's average access doors (ρ) as
// AvgAccessDoors.
func ablationRow(b *testing.B, name string, vip *viptree.VIPTree, pairs []bench.QueryPair) {
	rho := vip.TreeStats().AvgAccessDoors
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			vip.Distance(p.S, p.T)
		}
		b.ReportMetric(rho, "AvgAccessDoors")
	})
}

// BenchmarkAblationSuperiorDoors compares shortest-distance queries with and
// without the superior-door restriction of Definition 2.
func BenchmarkAblationSuperiorDoors(b *testing.B) {
	v := benchVenue("Men")
	pairs := bench.Pairs(toModelVenue(v), 512, 15)
	noSup, err := viptree.BuildVIPTreeWithOptions(v, viptree.TreeOptions{DisableSuperiorDoors: true})
	if err != nil {
		b.Fatal(err)
	}
	ablationRow(b, "superior-doors", viptree.MustBuildVIPTree(v), pairs)
	ablationRow(b, "all-doors", noSup, pairs)
}

// BenchmarkAblationMergeHeuristic compares the access-door-minimising merge
// of Algorithm 1 against a naive merge at query time.
func BenchmarkAblationMergeHeuristic(b *testing.B) {
	v := benchVenue("Men")
	pairs := bench.Pairs(toModelVenue(v), 512, 16)
	naive, err := viptree.BuildVIPTreeWithOptions(v, viptree.TreeOptions{NaiveMerge: true})
	if err != nil {
		b.Fatal(err)
	}
	ablationRow(b, "algorithm1-merge/query", viptree.MustBuildVIPTree(v), pairs)
	ablationRow(b, "naive-merge/query", naive, pairs)
}

// toModelVenue converts the public alias back to the internal type expected
// by the bench package (they are the same type; the helper only documents
// the intent).
func toModelVenue(v *viptree.Venue) *model.Venue { return v }

// BenchmarkWALAppend measures the durable update path end to end — update
// log apply plus write-ahead-log append — under each fsync policy. The gap
// between the always row and the others is the price of per-batch fsync;
// Close is inside the timed region so the interval/rotate rows pay their
// deferred fsync backlog instead of hiding it.
func BenchmarkWALAppend(b *testing.B) {
	v := viptree.MelbourneCentral(viptree.ScaleTiny)
	tree := viptree.MustBuildVIPTree(v)
	objs := bench.Objects(toModelVenue(v), 50, 7)
	locs := bench.Points(toModelVenue(v), 1024, 8)
	policies := []struct {
		name string
		sync viptree.WALSyncPolicy
	}{
		{"always", viptree.SyncAlways()},
		{"interval10ms", viptree.SyncInterval(10 * time.Millisecond)},
		{"rotate", viptree.SyncOnRotate()},
	}
	for _, pol := range policies {
		b.Run(pol.name, func(b *testing.B) {
			eng, _, err := viptree.OpenEngine(tree, viptree.EngineOptions{
				Objects:    tree.IndexObjects(objs),
				WALDir:     b.TempDir(),
				WALOptions: viptree.WALOptions{Sync: pol.sync},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.Move(i%len(objs), locs[i%len(locs)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkRecovery measures crash-recovery startup: scanning a WAL of n
// records and replaying it onto a freshly restored object index. The
// records/s metric bounds how much log a deployment can afford between
// snapshot compactions for a given startup budget.
func BenchmarkRecovery(b *testing.B) {
	v := viptree.MelbourneCentral(viptree.ScaleTiny)
	tree := viptree.MustBuildVIPTree(v)
	objs := bench.Objects(toModelVenue(v), 50, 7)
	locs := bench.Points(toModelVenue(v), 1024, 8)
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			dir := b.TempDir()
			eng, _, err := viptree.OpenEngine(tree, viptree.EngineOptions{
				Objects:    tree.IndexObjects(objs),
				WALDir:     dir,
				WALOptions: viptree.WALOptions{Sync: viptree.SyncOnRotate()},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := eng.Move(i%len(objs), locs[i%len(locs)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := eng.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng2, rep, err := viptree.OpenEngine(tree, viptree.EngineOptions{
					Objects:    tree.IndexObjects(objs),
					WALDir:     dir,
					WALOptions: viptree.WALOptions{Sync: viptree.SyncOnRotate()},
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Replayed != n {
					b.Fatalf("replayed %d records, want %d", rep.Replayed, n)
				}
				if err := eng2.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
