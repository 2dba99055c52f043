package iptree

import (
	"sort"

	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the batched kNN/range entry points (index.KNNBatcher
// and index.RangeBatcher). A sequential kNN/Range query spends most of its
// time in the Algorithm-2 leaf-to-root climb that seeds the branch-and-bound
// of Algorithm 5; the climb depends only on the query's source location, so
// a batch shares it:
//
//  1. Plan: dedup the batch's source locations with a locSet, and group the
//     queries by distinct source — queries from one source (and therefore
//     one source leaf) run back to back.
//  2. Climb: for every distinct source, produce its climb block — the
//     distances from the source to the access doors of every ancestor of
//     its leaf, chain-ordered leaf→root — either from the tree's climb
//     cache (climbcache.go) or by running the sequential climb
//     (distancesToNode) once and caching the result. Distinct sources fan
//     out over the workers.
//  3. Search: each distinct source seeds one per-node distance table from
//     its block and answers its whole query group with shared pruning
//     state — ONE best-first run (bestFirst in objects.go) at the group's
//     weakest bound (largest k, respectively largest radius). Groups fan
//     out over the workers with item-owned writes.
//
// Bit-identity: the climb block holds exactly the values the sequential
// path reads out of its own distancesToNode run — same arithmetic, same
// first-wins tie-breaks — so seeding from the block (cached or fresh) and
// then running the identical best-first loop reproduces the sequential
// results bit for bit, including (dist, ObjectID) tie-breaks. Sharing one
// search across a group is equally exact: a group's queries all have the
// SAME source location (grouping is by exact location), an object's
// distance is a deterministic function of the query point alone (never of
// k, the radius or the traversal order), and the collector retains the k
// smallest results under the total (dist, ObjectID) order. A k-query's
// answer is therefore the length-k prefix of the group's k_max answer, and
// an r-query's answer is the prefix of the r_max answer with dist <= r —
// the very slices the sequential runs produce, element for element.
// Workers only change which goroutine computes a block or answers a group,
// never the values, so results are worker-count independent.
//
// Consistency: the whole batch answers from one pinned epoch (a single
// atomic load), so a batch racing concurrent movers observes one published
// object state — never a mix of two.

// Compile-time capability checks.
var (
	_ index.KNNBatcher         = (*ObjectIndex)(nil)
	_ index.RangeBatcher       = (*ObjectIndex)(nil)
	_ index.ClimbCacheReporter = (*ObjectIndex)(nil)
)

// objBatchState is the recycled plan state of one KNNBatch/RangeBatch call.
type objBatchState struct {
	// srcOf[i] is the distinct-source ordinal of query i; order lists the
	// query indices grouped by that ordinal (starts/cursor are the counting
	// sort workspace).
	srcOf  []int32
	order  []int32
	starts []int32
	cursor []int32
	// src dedups the source locations in first-appearance order; leafOf
	// holds their leaves and blockOf their climb blocks (into arena for
	// fresh climbs, into the cache's memory for hits, laid out by blockOff).
	src      locSet
	leafOf   []NodeID
	blockOf  [][]float64
	blockOff []int32
	arena    []float64
}

// locSet assigns dense ordinals to the distinct source locations of a
// batch, in first-appearance order. Equal locations share a partition, so
// each partition chains its distinct locations (head[p] -> next[e] -> ...);
// the stamps validate head entries per batch, which makes the reset O(1)
// instead of O(partitions).
type locSet struct {
	locs  []model.Location
	head  []int32
	next  []int32
	stamp epochStamps
}

func (s *locSet) reset(numPartitions int) {
	s.locs = s.locs[:0]
	s.next = s.next[:0]
	if len(s.head) < numPartitions {
		s.head = make([]int32, numPartitions)
	}
	s.stamp.reset(numPartitions)
}

// add returns the ordinal of loc, registering it on first sight.
func (s *locSet) add(loc model.Location) int32 {
	p := int(loc.Partition)
	if s.stamp.has(p) {
		for e := s.head[p]; e >= 0; e = s.next[e] {
			if s.locs[e] == loc {
				return e
			}
		}
	} else {
		s.stamp.mark(p)
		s.head[p] = -1
	}
	e := int32(len(s.locs))
	s.locs = append(s.locs, loc)
	s.next = append(s.next, s.head[p])
	s.head[p] = e
	return e
}

// growI32 returns buf resized to n entries, reallocating only on growth.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// resizeF64 returns buf resized to n, reallocating only on growth.
func resizeF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// KNNBatch answers many kNN queries as one batch, writing each query's
// result into the matching slot of out (which must be at least len(queries)
// long). Results are bit-identical to per-query KNN calls — the whole batch
// answers from one pinned epoch — and do not depend on workers (<= 1
// executes on the calling goroutine). It implements index.KNNBatcher.
func (oi *ObjectIndex) KNNBatch(queries []index.KNNQuery, out [][]index.ObjectResult, workers int) {
	if len(queries) == 0 {
		return
	}
	ep := oi.currentEpoch()
	t := oi.tree
	oi.objectBatch(len(queries), workers,
		func(i int) model.Location { return queries[i].Q },
		func(group []int32, qLeaf NodeID, oc *objScratch) {
			// One search at the group's largest k serves the whole group:
			// every smaller k's answer is a prefix of the shared result
			// (see the bit-identity argument in the file comment).
			kmax := 0
			for _, i := range group {
				kmax = max(kmax, queries[i].K)
			}
			if kmax <= 0 || ep.subtreeCount[t.root] == 0 {
				for _, i := range group {
					out[i] = nil
				}
				return
			}
			res := oi.bestFirst(ep, queries[group[0]].Q, qLeaf, kmax, Infinite, oc)
			shared := false
			for _, i := range group {
				k := queries[i].K
				cut := min(k, len(res))
				switch {
				case k <= 0 || cut == 0:
					out[i] = nil
				case cut == len(res) && !shared:
					// Hand the search's own slice to one query; everyone
					// else gets a fresh copy, so outputs never alias.
					out[i] = res
					shared = true
				default:
					out[i] = append([]index.ObjectResult(nil), res[:cut]...)
				}
			}
		})
}

// RangeBatch answers many range queries as one batch into out (at least
// len(queries) long), with the same bit-identity, single-epoch and
// worker-independence guarantees as KNNBatch. It implements
// index.RangeBatcher.
func (oi *ObjectIndex) RangeBatch(queries []index.RangeQuery, out [][]index.ObjectResult, workers int) {
	if len(queries) == 0 {
		return
	}
	ep := oi.currentEpoch()
	t := oi.tree
	oi.objectBatch(len(queries), workers,
		func(i int) model.Location { return queries[i].Q },
		func(group []int32, qLeaf NodeID, oc *objScratch) {
			if ep.subtreeCount[t.root] == 0 {
				for _, i := range group {
					out[i] = nil
				}
				return
			}
			// One search at the group's largest radius serves the whole
			// group: each query's answer is the ascending-sorted prefix
			// with dist <= its own radius. A NaN radius breaks the max
			// ordering, so such groups fall back to per-query searches.
			q := queries[group[0]].Q
			rmax := queries[group[0]].R
			for _, i := range group[1:] {
				rmax = max(rmax, queries[i].R)
			}
			if rmax != rmax {
				for _, i := range group {
					out[i] = oi.bestFirst(ep, q, qLeaf, 0, queries[i].R, oc)
				}
				return
			}
			res := oi.bestFirst(ep, q, qLeaf, 0, rmax, oc)
			shared := false
			for _, i := range group {
				r := queries[i].R
				cut := sort.Search(len(res), func(x int) bool { return res[x].Dist > r })
				switch {
				case cut == 0:
					out[i] = nil
				case cut == len(res) && !shared:
					out[i] = res
					shared = true
				default:
					out[i] = append([]index.ObjectResult(nil), res[:cut]...)
				}
			}
		})
}

// objectBatch is the shared three-phase driver: plan (dedup + group), climb
// (one block per distinct source, through the cache), search (run once per
// distinct source with the group's query indices and a scratch seeded from
// the source's block). run must write only query-owned state.
func (oi *ObjectIndex) objectBatch(n, workers int, locOf func(int) model.Location, run func(group []int32, qLeaf NodeID, oc *objScratch)) {
	t := oi.tree
	bs := oi.objBatchStates.get()
	defer oi.objBatchStates.put(bs)
	bs.src.reset(t.venue.NumPartitions())

	// Plan: dedup sources and group query indices by distinct source.
	bs.srcOf = bs.srcOf[:0]
	for i := 0; i < n; i++ {
		bs.srcOf = append(bs.srcOf, bs.src.add(locOf(i)))
	}
	nSrc := len(bs.src.locs)
	bs.leafOf = append(bs.leafOf[:0], make([]NodeID, nSrc)...)
	bs.blockOff = growI32(bs.blockOff, nSrc+1)
	bs.blockOff[0] = 0
	total := 0
	for e := 0; e < nSrc; e++ {
		leaf := t.Leaf(bs.src.locs[e].Partition)
		bs.leafOf[e] = leaf
		for nd := leaf; ; nd = t.nodes[nd].Parent {
			total += len(t.nodes[nd].AccessDoors)
			if nd == t.root {
				break
			}
		}
		bs.blockOff[e+1] = int32(total)
	}
	bs.arena = resizeF64(bs.arena, total)
	if cap(bs.blockOf) < nSrc {
		bs.blockOf = make([][]float64, nSrc)
	}
	bs.blockOf = bs.blockOf[:nSrc]
	bs.starts = growI32(bs.starts, nSrc+1)
	for k := range bs.starts {
		bs.starts[k] = 0
	}
	for _, e := range bs.srcOf {
		bs.starts[e+1]++
	}
	for k := 1; k <= nSrc; k++ {
		bs.starts[k] += bs.starts[k-1]
	}
	bs.order = growI32(bs.order, n)
	bs.cursor = append(bs.cursor[:0], bs.starts[:nSrc]...)
	for i, e := range bs.srcOf {
		bs.order[bs.cursor[e]] = int32(i)
		bs.cursor[e]++
	}

	maxW := workers
	if maxW < 1 {
		maxW = 1
	}
	if maxW > n {
		maxW = n
	}

	// Climb: one block per distinct source, via the cache when warm.
	scs := make([]*distScratch, min(maxW, nSrc))
	runParallel(nSrc, maxW, func(w, e int) {
		loc := bs.src.locs[e]
		if blk := t.climb.lookup(loc); blk != nil {
			bs.blockOf[e] = blk
			return
		}
		sc := scs[w]
		if sc == nil {
			sc = t.distScratches.get()
			scs[w] = sc
		}
		blk := bs.arena[bs.blockOff[e]:bs.blockOff[e+1]]
		oi.fillClimbBlock(loc, sc, blk)
		bs.blockOf[e] = blk
		t.climb.insert(loc, blk)
	})
	for _, sc := range scs {
		if sc != nil {
			t.distScratches.put(sc)
		}
	}

	// Search: the groups fan out over the workers; each seeds one per-node
	// distance table from its source's block and answers all of its queries
	// from that shared state.
	ocs := make([]*objScratch, min(maxW, nSrc))
	runParallel(nSrc, maxW, func(w, e int) {
		oc := ocs[w]
		if oc == nil {
			oc = oi.objScratches.get()
			ocs[w] = oc
		}
		leaf := bs.leafOf[e]
		blk := bs.blockOf[e]
		nd := &oc.nodes
		nd.reset(len(t.nodes))
		off := 0
		for node := leaf; ; node = t.nodes[node].Parent {
			ads := len(t.nodes[node].AccessDoors)
			copy(nd.put(node, ads), blk[off:off+ads])
			off += ads
			if node == t.root {
				break
			}
		}
		run(bs.order[bs.starts[e]:bs.starts[e+1]], leaf, oc)
	})
	for _, oc := range ocs {
		if oc != nil {
			oi.objScratches.put(oc)
		}
	}
}

// fillClimbBlock runs the sequential Algorithm-2 climb for loc — the exact
// arithmetic of the single-query path — and scatters the per-node access
// door tables into blk in leaf→root chain order. The sweep counter feeds
// the instrumented no-sweep-on-warm-hit tests.
func (oi *ObjectIndex) fillClimbBlock(loc model.Location, sc *distScratch, blk []float64) {
	t := oi.tree
	sd := &sc.src
	sd.reset(t.venue.NumDoors())
	t.distancesToNode(loc, t.root, sd)
	off := 0
	for _, n := range sd.nodeOrder {
		for _, a := range t.nodes[n].AccessDoors {
			blk[off], _ = sd.tab.get(a)
			off++
		}
	}
	t.climb.sweeps.Add(uint64(len(sd.nodeOrder) - 1))
}
