package iptree

import (
	"viptree/internal/graph"
	"viptree/internal/model"
)

// This file implements shortest-path recovery (Section 3.2): the partial
// shortest path is assembled from the via-doors recorded by Algorithm 2/3,
// and each partial edge is decomposed into final edges with Algorithm 4
// using the next-hop doors stored in the distance matrices.
//
// The whole expansion runs on recycled scratch buffers (pathScratch) with an
// explicit work stack instead of recursion, so a warm Path query allocates
// only the returned result slice — the same discipline the Distance and
// kNN/Range hot paths follow.

// maxDecompose bounds the steps of edge decomposition; it is far larger
// than any real path and only guards against pathological matrices.
const maxDecompose = 1 << 14

// doorPair is one pending segment of the decomposition work stack.
type doorPair struct{ a, b model.DoorID }

// Path returns the shortest distance between s and d together with the
// sequence of doors on the shortest path. The sequence is empty when both
// locations are in the same partition, and starts (ends) with the first
// (last) door crossed.
func (t *Tree) Path(s, d model.Location) (float64, []model.DoorID) {
	sc := t.distScratches.get()
	defer t.distScratches.put(sc)
	ps := &sc.path
	if leaf := t.Leaf(s.Partition); leaf == t.Leaf(d.Partition) {
		return t.sameLeafPath(s, d, leaf, ps)
	}
	dist, sdS, sdD, pair := t.distanceInternal(s, d, sc)
	if dist == Infinite {
		return dist, nil
	}
	ps.partial = t.partialPathInto(sdS, sdD, pair, ps.partial[:0])
	out := t.expandPartialInto(ps.partial, ps)
	result := make([]model.DoorID, len(out))
	copy(result, out)
	return dist, result
}

// partialPathInto assembles the partial shortest path from the via chains of
// the two Algorithm-2 runs into buf: superior door of the source partition,
// access doors climbing up to the LCA child on the source side, then down
// the target side, ending at the superior door of the target partition.
func (t *Tree) partialPathInto(sdS, sdD *sourceDists, pair [2]model.DoorID, buf []model.DoorID) []model.DoorID {
	// The source-side chain unwinds end→source; reverse it in place to get
	// source-first order.
	buf = appendViaChain(buf, sdS, pair[0])
	reverseDoors(buf)
	// The target-side chain unwinds end→target, which is exactly the order
	// the partial path continues in (LCA crossing first, target's superior
	// door last).
	buf = appendViaChain(buf, sdD, pair[1])
	return dedupConsecutive(buf)
}

// appendViaChain appends the chain of doors from `end` back towards the
// source of sd, in unwind (end-first) order.
func appendViaChain(buf []model.DoorID, sd *sourceDists, end model.DoorID) []model.DoorID {
	cur := end
	for cur != NoDoor {
		buf = append(buf, cur)
		if !sd.tab.has(cur) {
			break
		}
		cur = sd.tab.viaOf(cur)
	}
	return buf
}

func reverseDoors(doors []model.DoorID) {
	for i, j := 0, len(doors)-1; i < j; i, j = i+1, j-1 {
		doors[i], doors[j] = doors[j], doors[i]
	}
}

// dedupConsecutive removes consecutive duplicate doors in place.
func dedupConsecutive(doors []model.DoorID) []model.DoorID {
	if len(doors) == 0 {
		return doors
	}
	out := doors[:1]
	for _, d := range doors[1:] {
		if d != out[len(out)-1] {
			out = append(out, d)
		}
	}
	return out
}

// expandPartialInto decomposes every edge of the partial path into final
// edges, concatenating the results into the scratch's out buffer.
func (t *Tree) expandPartialInto(partial []model.DoorID, ps *pathScratch) []model.DoorID {
	if len(partial) == 0 {
		return nil
	}
	out := append(ps.out[:0], partial[0])
	for i := 1; i < len(partial); i++ {
		out = t.expandEdgeInto(partial[i-1], partial[i], out, ps)
	}
	ps.out = out
	return out
}

// expandEdgeInto appends the complete door sequence of the shortest path
// from a to b — excluding a itself, which the caller has already emitted —
// to out, implementing Algorithm 4 iteratively: the segment currently being
// decomposed walks leftmost-first while the right halves of each split wait
// on an explicit stack, reproducing the recursion's emission order without
// its allocations. When the matrices cannot decompose a segment (a rare
// situation, e.g. shortest paths that leave and re-enter a node), the whole
// a→b edge is recovered with a plain graph search instead, guaranteeing a
// correct result at a small cost for those cases.
func (t *Tree) expandEdgeInto(a, b model.DoorID, out []model.DoorID, ps *pathScratch) []model.DoorID {
	mark := len(out)
	budget := maxDecompose
	stack := ps.stack[:0]
	curA, curB := a, b
	fail := false
	for {
		if budget <= 0 {
			fail = true
			break
		}
		budget--
		if curA != curB { // an empty segment contributes nothing
			final, next, ok := t.decomposeStep(curA, curB)
			if !ok {
				fail = true
				break
			}
			if !final {
				// Split at the next-hop door: continue with the left half,
				// park the right half.
				stack = append(stack, doorPair{next, curB})
				curB = next
				continue
			}
			out = append(out, curB)
		}
		if len(stack) == 0 {
			break
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		curA, curB = top.a, top.b
	}
	ps.stack = stack[:0]
	if fail {
		out = out[:mark]
		out = t.appendFallbackPath(a, b, out, &ps.search.SearchScratch)
	}
	return out
}

// decomposeStep is one step of Algorithm 4 on the segment (a, b): it reports
// whether the edge is final, or the next-hop door to split at, or that the
// matrices cannot decompose the segment.
func (t *Tree) decomposeStep(a, b model.DoorID) (final bool, next model.DoorID, ok bool) {
	// Lemmas 4 and 6: an edge between two non-access doors is final.
	if !t.doorIsAccess(a) && !t.doorIsAccess(b) {
		return true, NoDoor, true
	}
	mat, row, col, found := t.decompositionEntry(a, b)
	if !found {
		return false, NoDoor, false
	}
	n := mat.nextAt(row, col)
	// Lemma 3: a NULL next hop means the edge is final.
	if n == NoDoor {
		return true, NoDoor, true
	}
	if n == a || n == b {
		return false, NoDoor, false
	}
	return false, n, true
}

// decompositionEntry finds the lowest node whose distance matrix stores an
// entry relating doors a and b and returns that matrix together with the
// oriented (row, col) position of the entry. Leaf matrices are rectangular
// (rows are all doors, columns only the access doors), so the entry may only
// exist in the (b, a) orientation; the position returned by locate already
// accounts for that, and the next-hop door read from it still lies on the
// shortest path between a and b, so the decomposition remains valid in
// either orientation.
func (t *Tree) decompositionEntry(a, b model.DoorID) (*Matrix, int, int, bool) {
	var bestMat *Matrix
	bestRow, bestCol := 0, 0
	bestLevel := int(^uint(0) >> 1)
	// The candidate nodes whose matrix can mention door d are the leaves
	// containing d (their matrices' rows are all of their doors) and the
	// parents of every node for which d is an access door (their matrices'
	// rows are the children's access doors). The four loops below visit them
	// in that order for both doors, without materialising the candidate list
	// — this routine runs once per edge of every decomposed path, and during
	// VIP materialisation once per matrix next-hop entry. Candidates at or
	// above the best level so far are skipped before any door lookup (they
	// can never win), which short-circuits everything after the first
	// leaf-level hit.
	visit := func(n NodeID) {
		lvl := t.nodes[n].Level
		if lvl >= bestLevel {
			return
		}
		mat := t.nodes[n].Matrix
		if mat == nil {
			return
		}
		if row, col, ok := mat.locate(a, b); ok {
			bestMat, bestRow, bestCol, bestLevel = mat, row, col, lvl
		}
	}
	pk := t.pk
	for _, n := range pk.leavesOfDoor.of(a) {
		visit(NodeID(n))
	}
	for _, n := range pk.accessNodesOfDoor.of(a) {
		if p := t.nodes[n].Parent; p != invalidNode {
			visit(p)
		}
	}
	for _, n := range pk.leavesOfDoor.of(b) {
		visit(NodeID(n))
	}
	for _, n := range pk.accessNodesOfDoor.of(b) {
		if p := t.nodes[n].Parent; p != invalidNode {
			visit(p)
		}
	}
	if bestMat == nil {
		return nil, 0, 0, false
	}
	return bestMat, bestRow, bestCol, true
}

// appendFallbackPath appends the door sequence between a and b (excluding
// a) recovered with a plain Dijkstra search on the D2D graph, run on the
// query's scratch. It is used only for edges the matrices cannot decompose.
func (t *Tree) appendFallbackPath(a, b model.DoorID, out []model.DoorID, sc *graph.SearchScratch) []model.DoorID {
	g := t.venue.D2D().Graph
	sc.Reset(g.NumVertices())
	sc.Seed(int(a), 0)
	sc.Target(int(b))
	if dist, _ := sc.Run(g); dist[b] == graph.Infinity {
		return append(out, b)
	}
	mark := len(out)
	out = graph.AppendPath(out, sc, int(b))
	return append(out[:mark], out[mark+1:]...) // drop a, already emitted
}
