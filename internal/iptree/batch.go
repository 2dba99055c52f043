package iptree

import (
	"slices"
	"sort"

	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the batched shortest-distance path
// (index.DistanceBatcher) of the IP-Tree and VIP-Tree. The batch is resolved
// in two parallel phases over shared read-only state:
//
//  1. Endpoint tables. The batch's distinct source and target locations are
//     identified, and for each one an Algorithm-2 table (distances to the
//     access doors of an ancestor) is computed once per *ancestor level the
//     batch actually needs* — a clustered workload with k distinct sources
//     pays for k climbs instead of one per query. On the IP-Tree the levels
//     of one endpoint share a single climb (each level extends the one
//     below); on the VIP-Tree each needed level is one sweep over the
//     materialised per-door entries.
//
//  2. Folded pairing sweeps. Queries are grouped by their pair of LCA
//     children (ns, nt) — all (source leaf, target leaf) combinations under
//     the same pair share it — and the cross-LCA pairing of Algorithm 3,
//     min over (a, b) of (ds[a] + M[a][b]) + dt[b], is factored as
//     min over b of u[b] + dt[b] with u[b] = min over a of ds[a] + M[a][b].
//     The fold u is computed once per distinct source per group and every
//     query then reduces to one branch-light O(ρ) sweep instead of the
//     O(ρ²) double loop. The factoring is exact, not approximate: for fixed
//     b, x -> x + dt[b] is monotone (no NaNs can arise from non-negative
//     and Infinite operands), so adding dt[b] to the minimum over a yields
//     bit-for-bit the minimum of the original sums, with the same
//     left-to-right association.
//
// Results are bit-identical to per-pair Distance calls: every combine visits
// the same candidate sums in an order-independent min reduction (only the
// distance value is needed, not the realising pair), and a candidate routed
// through an unreachable entry can never win the strict < because Infinite
// is math.MaxFloat64 — adding a finite distance to it rounds back to
// MaxFloat64 (and MaxFloat64+MaxFloat64 overflows to +Inf), neither of which
// beats a best that starts at Infinite. Both phases write disjoint state per
// work item (each endpoint owns its arena block, each query its out slot),
// so results do not depend on the worker count.

// trivialChunk is the number of same-leaf (D2D fallback) queries handed to a
// worker as one work item.
const trivialChunk = 64

// climbSteps is the carry-over structure of a climb path: per climbed level,
// the mapping from each parent access door to its position in the child's
// access-door list (-1 when absent).
type climbSteps struct {
	off   []int32 // len(levels climbed)+1 offsets into carry
	carry []int32
}

// leafClimb caches the ancestor chain of one distinct (source or target)
// leaf of the batch: levels[0] is the leaf itself, levels[k] its k-th
// ancestor, off the prefix sums of the ancestors' access-door counts (so a
// level-k table occupies [off[k], off[k+1]) of an endpoint's arena block),
// and steps the carry-over mappings of the climb. The chain is extended
// lazily to the deepest level any group needs.
type leafClimb struct {
	levels []NodeID
	off    []int32 // len(levels)+1
	steps  climbSteps
}

// ensureLevels extends lc's ancestor chain until it covers level m.
func (t *Tree) ensureLevels(lc *leafClimb, m int32) {
	for int32(len(lc.levels))-1 < m {
		child := lc.levels[len(lc.levels)-1]
		parent := t.nodes[child].Parent
		childAD := t.nodes[child].AccessDoors
		for _, d := range t.nodes[parent].AccessDoors {
			k := int32(-1)
			for ki, cd := range childAD {
				if cd == d {
					k = int32(ki)
					break
				}
			}
			lc.steps.carry = append(lc.steps.carry, k)
		}
		lc.steps.off = append(lc.steps.off, int32(len(lc.steps.carry)))
		lc.levels = append(lc.levels, parent)
		lc.off = append(lc.off, lc.off[len(lc.off)-1]+int32(len(t.nodes[parent].AccessDoors)))
	}
}

// locSet assigns dense ordinals to the distinct locations of a batch, in
// first-appearance order. Equal locations share a partition, so each
// partition chains its distinct locations (head[p] -> next[e] -> ...); the
// stamps validate head entries per batch, which makes the reset O(1)
// instead of O(partitions). Both batched paths dedup their endpoints with
// it: the distance path here and the kNN/range path (objbatch.go).
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

// add returns the ordinal of loc and whether this call registered it.
func (s *locSet) add(loc model.Location) (int32, bool) {
	p := int(loc.Partition)
	if s.stamp.has(p) {
		for e := s.head[p]; e >= 0; e = s.next[e] {
			if s.locs[e] == loc {
				return e, false
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
	return e, true
}

// endpointSide holds the distinct endpoints of one side (all sources or all
// targets) of a batch and their computed tables.
type endpointSide struct {
	// id maps each batch index to its distinct-endpoint index (set only for
	// cross-leaf queries).
	id []int32
	locSet
	leafOf []int32 // distinct endpoint -> index into batchState.leaves
	// need is the bitmask of ancestor levels some group requires of this
	// endpoint; maxLvl its highest set bit. When maxLvl does not fit the
	// mask (never in practice: it would need a tree of height > 63), every
	// level up to maxLvl is computed.
	need   []uint64
	maxLvl []int32
	// base[e] is the arena offset of endpoint e's block; the level-k table
	// lives at base[e] + leafClimb.off[k].
	base  []int32
	arena []float64
}

func (s *endpointSide) reset(n, numPartitions int) {
	if cap(s.id) < n {
		s.id = make([]int32, n)
	}
	s.id = s.id[:n]
	s.locSet.reset(numPartitions)
	s.leafOf = s.leafOf[:0]
	s.need = s.need[:0]
	s.maxLvl = s.maxLvl[:0]
	s.base = s.base[:0]
}

// endpoint returns the distinct-endpoint index of loc, registering it on
// first sight.
func (s *endpointSide) endpoint(loc model.Location, leafIdx int32) int32 {
	e, fresh := s.add(loc)
	if fresh {
		s.leafOf = append(s.leafOf, leafIdx)
		s.need = append(s.need, 0)
		s.maxLvl = append(s.maxLvl, 0)
	}
	return e
}

// mark records that level lvl of endpoint e is needed.
func (s *endpointSide) mark(e, lvl int32) {
	if lvl < 64 {
		s.need[e] |= 1 << uint(lvl)
	}
	if lvl > s.maxLvl[e] {
		s.maxLvl[e] = lvl
	}
}

// batchState is the shared plan of one batch: the classified and grouped
// queries, the per-group tree nodes, the distinct endpoints of both sides
// and the leaf ancestor chains. It is built single-threaded, read-only
// during the parallel phases, and recycled through Tree.batchStates.
type batchState struct {
	order   []int32 // cross-leaf query indices, group by group
	groups  []int32 // start offset of every group in order, plus sentinel
	trivial []int32 // same-leaf queries answered by the D2D fallback

	// Per group: the LCA, the LCA children on both sides, the climb level
	// of each child above its leaf, and the leafClimb of each side.
	gLCA, gNS, gNT []NodeID
	gLvlS, gLvlD   []int32
	gLeafS, gLeafD []int32

	// Supergroups: runs of groups sharing the same (ns, nt) pair — and
	// therefore the same LCA matrix positions and source folds. sgOrder
	// lists group indices sorted by (ns, nt); sgStarts holds the start of
	// every run, plus a final sentinel.
	sgOrder  []int32
	sgStarts []int32

	leaves  []leafClimb
	leafIdx map[NodeID]int32

	src, tgt endpointSide

	leafS, leafD []NodeID // per batch index (cross-leaf queries only)
	keys         []uint64 // packed (leafS, leafD, index) sort keys
}

// leafFor returns the leafClimb index of leaf, registering it on first
// sight.
func (st *batchState) leafFor(t *Tree, leaf NodeID) int32 {
	if li, ok := st.leafIdx[leaf]; ok {
		return li
	}
	li := int32(len(st.leaves))
	st.leafIdx[leaf] = li
	if cap(st.leaves) > len(st.leaves) {
		st.leaves = st.leaves[:li+1]
	} else {
		st.leaves = append(st.leaves, leafClimb{})
	}
	lc := &st.leaves[li]
	lc.levels = append(lc.levels[:0], leaf)
	lc.off = append(lc.off[:0], 0, int32(len(t.nodes[leaf].AccessDoors)))
	lc.steps.off = append(lc.steps.off[:0], 0)
	lc.steps.carry = lc.steps.carry[:0]
	return li
}

// planBatch classifies every query, groups the cross-leaf ones by their
// (source leaf, target leaf) pair, resolves the shared tree nodes of each
// group and registers the distinct endpoints with the levels they need.
// Same-partition queries are answered directly into out (they are a single
// geometric computation).
func (t *Tree) planBatch(pairs []index.LocationPair, out []float64) *batchState {
	st := t.batchStates.get()
	if st.leafIdx == nil {
		st.leafIdx = make(map[NodeID]int32)
	}
	st.order = st.order[:0]
	st.groups = st.groups[:0]
	st.trivial = st.trivial[:0]
	st.gLCA, st.gNS, st.gNT = st.gLCA[:0], st.gNS[:0], st.gNT[:0]
	st.gLvlS, st.gLvlD = st.gLvlS[:0], st.gLvlD[:0]
	st.gLeafS, st.gLeafD = st.gLeafS[:0], st.gLeafD[:0]
	st.leaves = st.leaves[:0]
	clear(st.leafIdx)
	numPartitions := len(t.leafOfPartition)
	st.src.reset(len(pairs), numPartitions)
	st.tgt.reset(len(pairs), numPartitions)
	if cap(st.leafS) < len(pairs) {
		st.leafS = make([]NodeID, len(pairs))
		st.leafD = make([]NodeID, len(pairs))
	}
	leafS := st.leafS[:len(pairs)]
	leafD := st.leafD[:len(pairs)]

	// Sorting 1.5M closure comparisons is the planner's enemy: when the
	// node and batch sizes fit, the (leafS, leafD, index) triple is packed
	// into one machine word and sorted branch-cheaply; the index in the low
	// bits keeps equal-leaf runs in batch order.
	packed := len(t.nodes) < 1<<21 && len(pairs) < 1<<22
	st.keys = st.keys[:0]
	for i, q := range pairs {
		if q.S.Partition == q.T.Partition {
			out[i] = t.venue.SamePartitionDist(q.S, q.T)
			continue
		}
		ls := t.Leaf(q.S.Partition)
		ld := t.Leaf(q.T.Partition)
		if ls == ld {
			st.trivial = append(st.trivial, int32(i))
			continue
		}
		leafS[i], leafD[i] = ls, ld
		st.order = append(st.order, int32(i))
		if packed {
			st.keys = append(st.keys, uint64(ls)<<43|uint64(ld)<<22|uint64(i))
		}
	}
	if packed {
		slices.Sort(st.keys)
		for i, k := range st.keys {
			st.order[i] = int32(k & (1<<22 - 1))
			if i > 0 && k>>22 == st.keys[i-1]>>22 {
				continue
			}
			st.groups = append(st.groups, int32(i))
		}
	} else {
		sort.Slice(st.order, func(a, b int) bool {
			qa, qb := st.order[a], st.order[b]
			if leafS[qa] != leafS[qb] {
				return leafS[qa] < leafS[qb]
			}
			return leafD[qa] < leafD[qb]
		})
		for i, qi := range st.order {
			if i > 0 && leafS[qi] == leafS[st.order[i-1]] && leafD[qi] == leafD[st.order[i-1]] {
				continue
			}
			st.groups = append(st.groups, int32(i))
		}
	}
	st.groups = append(st.groups, int32(len(st.order)))

	// Resolve the shared nodes of every group and mark the endpoint levels
	// it needs. climbLevel counts the steps from the leaf up to the LCA
	// child (0 when the leaf itself is the child).
	climbLevel := func(leaf, top NodeID) int32 {
		lvl := int32(0)
		for n := leaf; n != top; n = t.nodes[n].Parent {
			lvl++
		}
		return lvl
	}
	for g := 0; g+1 < len(st.groups); g++ {
		qs := st.order[st.groups[g]:st.groups[g+1]]
		ls, ld := leafS[qs[0]], leafD[qs[0]]
		lca := t.LCA(ls, ld)
		ns := t.ChildToward(lca, ls)
		nt := t.ChildToward(lca, ld)
		lvlS := climbLevel(ls, ns)
		lvlD := climbLevel(ld, nt)
		liS := st.leafFor(t, ls)
		liD := st.leafFor(t, ld)
		t.ensureLevels(&st.leaves[liS], lvlS)
		t.ensureLevels(&st.leaves[liD], lvlD)
		st.gLCA = append(st.gLCA, lca)
		st.gNS = append(st.gNS, ns)
		st.gNT = append(st.gNT, nt)
		st.gLvlS = append(st.gLvlS, lvlS)
		st.gLvlD = append(st.gLvlD, lvlD)
		st.gLeafS = append(st.gLeafS, liS)
		st.gLeafD = append(st.gLeafD, liD)
		for _, qi := range qs {
			se := st.src.endpoint(pairs[qi].S, liS)
			te := st.tgt.endpoint(pairs[qi].T, liD)
			st.src.id[qi] = se
			st.tgt.id[qi] = te
			st.src.mark(se, lvlS)
			st.tgt.mark(te, lvlD)
		}
	}

	// Supergroup the groups by (ns, nt): queries under the same pair of LCA
	// children share matrix positions and source folds no matter which
	// leaves they start from.
	numGroups := len(st.groups) - 1
	st.sgOrder = st.sgOrder[:0]
	for g := 0; g < numGroups; g++ {
		st.sgOrder = append(st.sgOrder, int32(g))
	}
	sort.Slice(st.sgOrder, func(a, b int) bool {
		ga, gb := st.sgOrder[a], st.sgOrder[b]
		if st.gNS[ga] != st.gNS[gb] {
			return st.gNS[ga] < st.gNS[gb]
		}
		return st.gNT[ga] < st.gNT[gb]
	})
	st.sgStarts = st.sgStarts[:0]
	for i, g := range st.sgOrder {
		if i > 0 {
			prev := st.sgOrder[i-1]
			if st.gNS[g] == st.gNS[prev] && st.gNT[g] == st.gNT[prev] {
				continue
			}
		}
		st.sgStarts = append(st.sgStarts, int32(i))
	}
	st.sgStarts = append(st.sgStarts, int32(len(st.sgOrder)))

	// Lay out the arena: each endpoint owns one block covering its levels
	// 0..maxLvl.
	layout := func(s *endpointSide) {
		s.base = append(s.base[:0], 0)
		for e := range s.locs {
			lc := &st.leaves[s.leafOf[e]]
			s.base = append(s.base, s.base[e]+lc.off[s.maxLvl[e]+1])
		}
		s.arena = resizeF64(s.arena, int(s.base[len(s.base)-1]))
	}
	layout(&st.src)
	layout(&st.tgt)
	return st
}

// batchScratch is the per-worker scratch of the batched distance path,
// recycled through Tree.batchScratches.
type batchScratch struct {
	cb combineScratch
	// Compact pairing positions of a supergroup's LCA matrix (valid rows of
	// the source-side child, valid columns of the target-side child).
	rowPos, rowIdx []int32
	colPos, colIdx []int32
	// fold holds the supergroup's source folds, one vector over the
	// gathered columns per distinct source encountered. foldOf[sid] points at a source's vector,
	// valid only when foldSeen has sid (reset once per supergroup in O(1)).
	fold     []float64
	foldOf   []int32
	foldSeen epochStamps
	// search runs the same-leaf D2D searches of a trivial chunk.
	search graph.SearchScratch
}

// resizeF64 returns buf resized to n, reallocating only on growth.
func resizeF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// DistanceBatch implements index.DistanceBatcher: Distance for every pair,
// with endpoint tables shared across all queries touching the same
// locations. out must be at least len(pairs) long. Results are bit-identical
// to per-pair Distance calls at any worker count; workers <= 1 runs on the
// calling goroutine.
func (t *Tree) DistanceBatch(pairs []index.LocationPair, out []float64, workers int) {
	t.distanceBatch(pairs, out, workers, t.ipEndpointTables)
}

// DistanceBatch implements index.DistanceBatcher for the VIP-Tree: planning
// and pairing are shared with the IP-Tree path, but each endpoint table
// comes from the materialised per-door entries (one sideDistances sweep per
// needed level) instead of a climb.
func (vt *VIPTree) DistanceBatch(pairs []index.LocationPair, out []float64, workers int) {
	vt.Tree.distanceBatch(pairs, out, workers, vt.vipEndpointTables)
}

// distanceBatch plans the batch, computes the endpoint tables (phase 1) and
// fans the group sweeps and D2D-fallback chunks over the worker pool
// (phase 2).
func (t *Tree) distanceBatch(pairs []index.LocationPair, out []float64, workers int, tables func(*batchState, *endpointSide, int, *batchScratch)) {
	if len(pairs) == 0 {
		return
	}
	_ = out[len(pairs)-1] // fail fast when out is too short
	st := t.planBatch(pairs, out)
	defer t.batchStates.put(st)
	nSrc, nTgt := len(st.src.locs), len(st.tgt.locs)
	numSuper := len(st.sgStarts) - 1
	chunks := (len(st.trivial) + trivialChunk - 1) / trivialChunk
	if nSrc+nTgt+numSuper+chunks == 0 {
		return
	}
	if workers <= 0 {
		workers = 1
	}
	if m := max(nSrc+nTgt, numSuper+chunks); workers > m {
		workers = m
	}
	scratches := make([]*batchScratch, workers)
	for i := range scratches {
		scratches[i] = t.batchScratches.get()
	}
	runParallel(nSrc+nTgt, workers, func(w, i int) {
		if i < nSrc {
			tables(st, &st.src, i, scratches[w])
		} else {
			tables(st, &st.tgt, i-nSrc, scratches[w])
		}
	})
	d2d := t.venue.D2D()
	runParallel(numSuper+chunks, workers, func(w, i int) {
		if i < numSuper {
			t.superSweep(pairs, out, st, i, scratches[w])
			return
		}
		j := (i - numSuper) * trivialChunk
		end := min(j+trivialChunk, len(st.trivial))
		sc := scratches[w]
		for _, qi := range st.trivial[j:end] {
			out[qi], _ = d2d.LocationSearch(&sc.search, pairs[qi].S, pairs[qi].T)
		}
	})
	for _, sc := range scratches {
		t.batchScratches.put(sc)
	}
}

// ipEndpointTables runs Algorithm 2 for one endpoint over its leaf's shared
// climb path, writing the aligned distance table of every level up to the
// endpoint's deepest needed one into its arena block (each level extends the
// one below, so all levels cost one climb). The aligned-array form is
// equivalent to the door table of the single-query climb: a parent access
// door that already has a value from below must be an access door of the
// immediate child (its inside face lies in the child's region, its outside
// face outside the parent's), so the carry-over mapping reproduces exactly
// the doors the single-query loop skips as already known, and all remaining
// doors combine over the same candidates.
func (t *Tree) ipEndpointTables(st *batchState, side *endpointSide, e int, sc *batchScratch) {
	lc := &st.leaves[side.leafOf[e]]
	block := side.arena[side.base[e]:side.base[e+1]]
	cur := block[:lc.off[1]]
	for i := range cur {
		cur[i] = Infinite
	}
	cb := &sc.cb
	t.seedLeafCompact(side.locs[e], lc.levels[0], cb)
	for j, bi := range cb.dstIdx {
		cur[bi] = cb.best[j]
	}
	child := lc.levels[0]
	for k := int32(1); k <= side.maxLvl[e]; k++ {
		parent := lc.levels[k]
		parentAD := t.nodes[parent].AccessDoors
		carry := lc.steps.carry[lc.steps.off[k-1]:lc.steps.off[k]]
		childRows := t.pk.adPosInParent[child]
		parentPos := t.pk.adPosInOwn[parent]
		mat := t.nodes[parent].Matrix
		stride := len(mat.cols)
		slab := mat.dist
		nxt := block[lc.off[k]:lc.off[k+1]]
		gathered := false
		var cmB []float64
		var cmR []int32
		for pi := range parentAD {
			if ki := carry[pi]; ki >= 0 && cur[ki] < Infinite {
				nxt[pi] = cur[ki]
				continue
			}
			ci := parentPos[pi]
			if ci < 0 {
				nxt[pi] = Infinite
				continue
			}
			if !gathered {
				gathered = true
				cmB, cmR = cb.base[:0], cb.rows[:0]
				for ki := range cur {
					if cur[ki] < Infinite && childRows[ki] >= 0 {
						cmB = append(cmB, cur[ki])
						cmR = append(cmR, childRows[ki])
					}
				}
				cb.base, cb.rows = cmB, cmR
			}
			best := Infinite
			for k2, b := range cmB {
				if c := b + slab[int(cmR[k2])*stride+int(ci)]; c < best {
					best = c
				}
			}
			nxt[pi] = best
		}
		cur = nxt
		child = parent
	}
}

// vipEndpointTables fills one endpoint's arena block from the materialised
// per-door entries: one sideDistances sweep per level some group needs
// (levels are independent lookups on the VIP-Tree, so unneeded ones are
// skipped).
func (vt *VIPTree) vipEndpointTables(st *batchState, side *endpointSide, e int, _ *batchScratch) {
	lc := &st.leaves[side.leafOf[e]]
	block := side.arena[side.base[e]:side.base[e+1]]
	all := side.maxLvl[e] >= 64
	for k := int32(0); k <= side.maxLvl[e]; k++ {
		if !all && side.need[e]&(1<<uint(k)) == 0 {
			continue
		}
		vt.sideDistances(side.locs[e], lc.levels[k], block[lc.off[k]:lc.off[k+1]], nil)
	}
}

// superSweep resolves every query of one supergroup — all groups sharing
// one (ns, nt) pair of LCA children. The valid matrix positions of both
// children's access doors are gathered once; for each distinct source the
// pairing's inner dimension is folded once into u[b] = min over a of
// ds[a] + M[a][b], kept only for the target-side doors with a matrix column
// (the others have no candidates at all); and every query then runs one
// branch-light O(ρ) min sweep of u[b] + dt[b] over those doors.
func (t *Tree) superSweep(pairs []index.LocationPair, out []float64, st *batchState, sg int, sc *batchScratch) {
	gs := st.sgOrder[st.sgStarts[sg]:st.sgStarts[sg+1]]
	g0 := gs[0]
	ns, nt := st.gNS[g0], st.gNT[g0]
	mat := t.nodes[st.gLCA[g0]].Matrix
	rowPos := t.pk.adPosInParent[ns]
	colPos := t.pk.adPosInParent[nt]
	rp, ri := sc.rowPos[:0], sc.rowIdx[:0]
	for i := range rowPos {
		if rowPos[i] >= 0 {
			rp = append(rp, rowPos[i])
			ri = append(ri, int32(i))
		}
	}
	sc.rowPos, sc.rowIdx = rp, ri
	cp, cj := sc.colPos[:0], sc.colIdx[:0]
	for j := range colPos {
		if colPos[j] >= 0 {
			cp = append(cp, colPos[j])
			cj = append(cj, int32(j))
		}
	}
	sc.colPos, sc.colIdx = cp, cj
	stride := len(mat.cols)
	slab := mat.dist

	nSrc := len(st.src.locs)
	if len(sc.foldOf) < nSrc {
		sc.foldOf = make([]int32, nSrc)
	}
	sc.foldSeen.reset(nSrc)
	sc.fold = sc.fold[:0]
	for _, g := range gs {
		qs := st.order[st.groups[g]:st.groups[g+1]]
		offS := st.leaves[st.gLeafS[g]].off[st.gLvlS[g]]
		offD := st.leaves[st.gLeafD[g]].off[st.gLvlD[g]]
		for _, qi := range qs {
			sid := st.src.id[qi]
			var fi int32
			if sc.foldSeen.has(int(sid)) {
				fi = sc.foldOf[sid]
			} else {
				fi = int32(len(sc.fold))
				sc.foldSeen.mark(int(sid))
				sc.foldOf[sid] = fi
				srow := st.src.arena[st.src.base[sid]+offS:]
				for range cp {
					sc.fold = append(sc.fold, Infinite)
				}
				u := sc.fold[fi:][:len(cp)]
				for a, rpos := range rp {
					ds := srow[ri[a]]
					row := slab[int(rpos)*stride:]
					for b, cpos := range cp {
						if c := ds + row[cpos]; c < u[b] {
							u[b] = c
						}
					}
				}
			}
			u := sc.fold[fi:][:len(cj)]
			trow := st.tgt.arena[st.tgt.base[st.tgt.id[qi]]+offD:]
			best := Infinite
			for b, j := range cj {
				if tot := u[b] + trow[j]; tot < best {
					best = tot
				}
			}
			out[qi] = best
		}
	}
}
