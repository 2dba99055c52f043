package iptree

import (
	"slices"

	"viptree/internal/graph"
	"viptree/internal/model"
)

// This file implements the per-leaf door table behind every query whose two
// ends lie in one leaf. The paper answers such a query with a Dijkstra
// expansion over the D2D graph (Section 3.1), where a hallway's doors form a
// clique: on Menzies full, whose leaves hold 100–109 doors, one same-leaf
// Distance searched for ~110 µs against ~0.3 µs across leaves.
//
// The table of a leaf holds the exact distance between every two of its
// doors a and b:
//
//	T[a][b] = min(in-leaf(a, b), min over access doors x of M[a][x] + M[b][x])
//
// in-leaf(a, b) is the shortest walk over the leaf's own partitions and the
// outdoor edges between its doors, and M is the leaf matrix, whose entries
// are exact door-to-access-door distances. A shortest path that leaves the
// leaf passes an access door x, so it is M[a][x] + M[b][x] long; one that
// stays inside is in-leaf(a, b) long. The minimum is therefore exact.
//
// Walking distance is symmetric, so the table keeps one triangle. Same-leaf
// Distance and Path read it through walksFrom and columnMin, the own-leaf
// scan of kNN and Range through walksFrom and fillFrom, which sweeps the
// same sums row by row. A table is built on the first query that needs
// its leaf and published through the leaf's atomic pointer on the Tree,
// which both trees share. The snapshot, the build and restore never build
// one, and MemoryBytes does not count them: they are a query-time cache of
// Σ n(n+1)/2 × 8 bytes over the leaves' door counts n (0.64 MB on Menzies
// full). Two first queries that race build identical tables; the one that
// loses the publish drops its copy.

// leafTable is the door table of one leaf. Doors are addressed by their
// position in the leaf's sorted door set (Tree.DoorsOfLeaf), which is also
// the row order of the leaf matrix.
type leafTable struct {
	// doors is the leaf's door set; n is its length.
	doors []model.DoorID
	n     int
	// dist is T's upper triangle, row by row: T[a][b] = T[b][a] for a ≤ b
	// is dist[rowStart(a)+b], the distance between the doors at positions
	// a and b (Infinite when unreachable).
	dist []float64
	// parts lists the leaf's partitions in ascending order. The doors of
	// parts[k] sit at positions partPos[partOff[k]:partOff[k+1]], aligned
	// with Venue.Partition(parts[k]).Doors.
	parts   []model.PartitionID
	partOff []int32
	partPos []int32
	// posPart[2*i] and posPart[2*i+1] are the ordinals in parts of the (at
	// most two) leaf partitions of the door at position i, -1 for none.
	posPart []int32
	// mrow[i] is the leaf-matrix row of the door at position i (nil when the
	// matrix has none), a view into the tree's slab, and colPos[x] is the
	// position of the matrix's x-th access door (-1 when not a leaf door).
	mrow   [][]float64
	colPos []int32
	// The outdoor edges between two of the leaf's doors, in compressed form:
	// position i's arcs are outTo/outW[outOff[i]:outOff[i+1]]. outOff is nil
	// when the leaf has none.
	outOff []int32
	outTo  []int32
	outW   []float64
}

// ordinal returns the position of partition p, a partition of the leaf, in
// lt.parts.
func (lt *leafTable) ordinal(p model.PartitionID) int {
	k, _ := slices.BinarySearch(lt.parts, p)
	return k
}

// doorsOf returns the table positions of the doors of the leaf's k-th
// partition, aligned with that partition's Doors.
func (lt *leafTable) doorsOf(k int) []int32 { return lt.partPos[lt.partOff[k]:lt.partOff[k+1]] }

// rowStart returns the offset of row a of the triangle, less a: row a
// holds T[a][a..n-1] at dist[rowStart(a)+a : rowStart(a)+n].
func (lt *leafTable) rowStart(a int) int { return a*lt.n - a*(a+1)/2 }

// at returns T[a][b].
func (lt *leafTable) at(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return lt.dist[lt.rowStart(a)+b]
}

// columnMin returns min over i of walk[i] + T[from[i]][b]: the distance from
// a location to the door at position b, given the walks from the location
// to the doors of its partition (at positions from). An unreachable entry
// contributes Infinite plus a walk, which rounds to Infinite and never wins.
func (lt *leafTable) columnMin(walk []float64, from []int32, b int32) float64 {
	best := Infinite
	for i, a := range from {
		if c := walk[i] + lt.at(int(a), int(b)); c < best {
			best = c
		}
	}
	return best
}

// fillFrom writes into u (one entry per position) the distance from a
// location to every door of the leaf: u[b] is columnMin(walk, from, b). It
// reads T[a][·] as column a of the rows above a and row a from a on; the
// minimum of a set does not depend on the order it is taken in, so every
// entry equals columnMin bit for bit.
func (lt *leafTable) fillFrom(u, walk []float64, from []int32) {
	for j := range u {
		u[j] = Infinite
	}
	for i, a := range from {
		w, a := walk[i], int(a)
		for j := range a {
			if c := w + lt.dist[lt.rowStart(j)+a]; c < u[j] {
				u[j] = c
			}
		}
		row := lt.dist[lt.rowStart(a)+a : lt.rowStart(a)+lt.n]
		for k, x := range row {
			if c := w + x; c < u[a+k] {
				u[a+k] = c
			}
		}
	}
}

// leafTableOf returns the door table of a leaf, building and publishing it
// on first use.
func (t *Tree) leafTableOf(leaf NodeID) *leafTable {
	slot := &t.leafTables[leaf]
	if lt := slot.Load(); lt != nil {
		return lt
	}
	if lt := t.buildLeafTable(leaf); slot.CompareAndSwap(nil, lt) {
		return lt
	}
	return slot.Load()
}

// walksFrom writes into buf the walk from loc to each door of its partition
// and returns it, with the positions of those doors in lt. loc must lie in
// lt's leaf.
func (t *Tree) walksFrom(lt *leafTable, loc model.Location, buf []float64) ([]float64, []int32) {
	v := t.venue
	buf = buf[:0]
	for _, d := range v.Partition(loc.Partition).Doors {
		buf = append(buf, v.DistToDoor(loc, d))
	}
	return buf, lt.doorsOf(lt.ordinal(loc.Partition))
}

// sameLeafDistance answers Distance for s and d in one leaf: the least walk
// from s to a door a of its partition, plus T[a][b], plus the walk from a
// door b of d's partition to d. Locations in one partition are
// Venue.SamePartitionDist apart. walk is the caller's buffer.
func (t *Tree) sameLeafDistance(s, d model.Location, leaf NodeID, walk *[]float64) float64 {
	v := t.venue
	if s.Partition == d.Partition {
		return v.SamePartitionDist(s, d)
	}
	lt := t.leafTableOf(leaf)
	ws, from := t.walksFrom(lt, s, *walk)
	*walk = ws
	best := Infinite
	dDoors := v.Partition(d.Partition).Doors
	for j, b := range lt.doorsOf(lt.ordinal(d.Partition)) {
		if c := lt.columnMin(ws, from, b) + v.DistToDoor(d, dDoors[j]); c < best {
			best = c
		}
	}
	return best
}

// sameLeafPath answers Path for s and d in one leaf. The distance is
// sameLeafDistance's, so Path and Distance agree bit for bit. The doors come
// from one in-leaf search seeded at the doors of s's partition, where each
// access door x of the leaf also enters at the least walk(s, a) + M[a][x];
// a path that starts with such a leg gets the leg's doors from Algorithm 4.
// The search is exact: after the last access door it passes, a shortest
// path stays in the leaf. The returned slice is the query's only
// allocation, and nil within one partition or when d is unreachable.
func (t *Tree) sameLeafPath(s, d model.Location, leaf NodeID, ps *pathScratch) (float64, []model.DoorID) {
	dist := t.sameLeafDistance(s, d, leaf, &ps.walk)
	if s.Partition == d.Partition || dist == Infinite {
		return dist, nil
	}
	v := t.venue
	lt := t.leafTableOf(leaf)
	ws, from := t.walksFrom(lt, s, ps.walk)
	ps.walk = ws
	ls := &ps.search
	ls.reset(lt.n)
	// A door of s's partition needs not relax that partition: the walk from
	// s to any of its doors is no longer than through another one.
	for i, a := range from {
		if ls.offer(-1, a, ws[i], s.Partition) {
			ls.leg[a] = -1
		}
	}
	for x, xp := range lt.colPos {
		if xp < 0 {
			continue
		}
		best, leg := Infinite, int32(-1)
		for i, a := range from {
			if mr := lt.mrow[a]; mr != nil {
				if c := ws[i] + mr[x]; c < best {
					best, leg = c, a
				}
			}
		}
		if ls.offer(-1, xp, best, model.NoPartition) {
			ls.leg[xp] = leg
		}
	}
	dPos := lt.doorsOf(lt.ordinal(d.Partition))
	for _, b := range dPos {
		ls.Target(int(b))
	}
	t.runLeafSearch(lt, ls)
	last, best := -1, Infinite
	dDoors := v.Partition(d.Partition).Doors
	for j, b := range dPos {
		if c := ls.Dist(int(b)) + v.DistToDoor(d, dDoors[j]); c < best {
			last, best = int(b), c
		}
	}
	if last < 0 {
		return dist, nil
	}
	// The chain holds table positions, from the seed it starts at to last.
	chain := graph.AppendPath(ps.tmp[:0], &ls.SearchScratch, last)
	ps.tmp = chain
	out := ps.out[:0]
	if leg := ls.leg[chain[0]]; leg >= 0 {
		out = append(out, lt.doors[leg])
		out = t.expandEdgeInto(lt.doors[leg], lt.doors[chain[0]], out, ps)
		chain = chain[1:]
	}
	for _, p := range chain {
		out = append(out, lt.doors[p])
	}
	ps.out = out
	return dist, slices.Clone(out)
}

// leafSearch is the in-leaf search: a Dijkstra search over the positions of
// one leaf's doors that walks the leaf's partitions and the outdoor edges
// between its doors. It is clique-free: a settled door skips the partition
// it was reached through. The door it came from, or one before that,
// already relaxed every door of that partition, and walks inside one
// partition obey the triangle inequality (planar distance does, and so
// does a constant traversal cost, c ≤ 2c). So a hallway is relaxed from a
// few of its doors, not from each of them. The search also recovers
// D2D paths (appendFallbackPath), which use only the embedded scratch.
type leafSearch struct {
	graph.SearchScratch
	// via[i] is the partition through which position i was last improved:
	// the one partition it skips when settled. NoPartition relaxes all.
	via []model.PartitionID
	// leg[i] is the position of the door whose matrix leg seeded position
	// i, or -1; sameLeafPath reads it at the first door of its path.
	leg []int32
}

// reset starts a search over n positions.
func (ls *leafSearch) reset(n int) {
	ls.Reset(n)
	if cap(ls.via) < n {
		ls.via = make([]model.PartitionID, n)
		ls.leg = make([]int32, n)
	}
	ls.via = ls.via[:n]
	ls.leg = ls.leg[:n]
}

// offer relaxes position i to distance d from u (-1 for a seed), reached
// through partition p, and reports whether that improved i.
func (ls *leafSearch) offer(u, i int32, d float64, p model.PartitionID) bool {
	if d < ls.Dist(int(i)) {
		ls.Relax(int(u), int(i), d)
		ls.via[i] = p
		return true
	}
	return false
}

// runLeafSearch settles positions in distance order until the search is
// done, relaxing the leaf's partitions and outdoor edges from each.
func (t *Tree) runLeafSearch(lt *leafTable, ls *leafSearch) {
	v := t.venue
	for {
		u, du, ok := ls.Pop()
		if !ok {
			return
		}
		d := lt.doors[u]
		for _, k := range lt.posPart[2*u : 2*u+2] {
			if k < 0 || lt.parts[k] == ls.via[u] {
				continue
			}
			p := lt.parts[k]
			part := v.Partition(p)
			pos := lt.doorsOf(int(k))
			for j, w := range part.Doors {
				if w != d {
					ls.offer(int32(u), pos[j], du+v.IntraPartitionDist(p, d, w), p)
				}
			}
		}
		if lt.outOff != nil {
			for e := lt.outOff[u]; e < lt.outOff[u+1]; e++ {
				ls.offer(int32(u), lt.outTo[e], du+lt.outW[e], model.NoPartition)
			}
		}
	}
}

// buildLeafTable computes the door table of a leaf: one in-leaf search per
// door a, stopped once every position from a on is settled, gives row a of
// in-leaf(·, ·), and the leaf matrix's access-door columns then lower each
// entry to M[a][x] + M[b][x] where that is shorter.
func (t *Tree) buildLeafTable(leaf NodeID) *leafTable {
	v := t.venue
	node := &t.nodes[leaf]
	doors := t.doorsOfLeaf[leaf]
	n := len(doors)
	lt := &leafTable{
		doors:   doors,
		n:       n,
		dist:    make([]float64, n*(n+1)/2),
		parts:   slices.Sorted(slices.Values(node.Partitions)),
		posPart: make([]int32, 2*n),
	}
	for i := range lt.posPart {
		lt.posPart[i] = -1
	}
	lt.partOff = make([]int32, len(lt.parts)+1)
	for k, p := range lt.parts {
		for _, d := range v.Partition(p).Doors {
			i, _ := slices.BinarySearch(doors, d) // a leaf's partitions' doors are its doors
			lt.partPos = append(lt.partPos, int32(i))
			if lt.posPart[2*i] < 0 {
				lt.posPart[2*i] = int32(k)
			} else {
				lt.posPart[2*i+1] = int32(k)
			}
		}
		lt.partOff[k+1] = int32(len(lt.partPos))
	}
	lt.indexOutdoorEdges(v)

	var ls leafSearch
	for i := range n {
		row := lt.dist[lt.rowStart(i)+i : lt.rowStart(i)+n]
		if i == n-1 {
			row[0] = 0 // a search without targets would run to exhaustion
			break
		}
		ls.reset(n)
		ls.offer(-1, int32(i), 0, model.NoPartition)
		for j := i + 1; j < n; j++ {
			ls.Target(j)
		}
		t.runLeafSearch(lt, &ls)
		for k := range row {
			row[k] = ls.Dist(i + k)
		}
	}

	lt.mrow = make([][]float64, n)
	m := node.Matrix
	if m == nil {
		return lt
	}
	cols := len(m.cols)
	for i, d := range doors {
		if r, ok := m.rowIndexOf(d); ok {
			lt.mrow[i] = m.dist[r*cols : (r+1)*cols]
		}
	}
	lt.colPos = make([]int32, cols)
	for x, d := range m.cols {
		i, ok := slices.BinarySearch(doors, d)
		lt.colPos[x] = int32(i)
		if !ok {
			lt.colPos[x] = -1
		}
	}
	for i, mi := range lt.mrow {
		if mi == nil {
			continue
		}
		row := lt.dist[lt.rowStart(i) : lt.rowStart(i)+n]
		for j := i; j < n; j++ {
			mj := lt.mrow[j]
			if mj == nil {
				continue
			}
			// An Infinite cell makes the sum Infinite or +Inf, neither of
			// which is below the current entry.
			best := row[j]
			for x, a := range mi {
				if c := a + mj[x]; c < best {
					best = c
				}
			}
			row[j] = best
		}
	}
	return lt
}

// indexOutdoorEdges collects the outdoor edges whose two ends are doors of
// the table's leaf into the outOff/outTo/outW arcs, both ways.
func (lt *leafTable) indexOutdoorEdges(v *model.Venue) {
	type arc struct {
		from, to int32
		w        float64
	}
	var arcs []arc
	for _, e := range v.OutdoorEdges {
		a, okA := slices.BinarySearch(lt.doors, e.From)
		b, okB := slices.BinarySearch(lt.doors, e.To)
		if okA && okB {
			arcs = append(arcs, arc{int32(a), int32(b), e.Weight}, arc{int32(b), int32(a), e.Weight})
		}
	}
	if len(arcs) == 0 {
		return
	}
	lt.outOff = make([]int32, lt.n+1)
	for _, a := range arcs {
		lt.outOff[a.from+1]++
	}
	for i := range lt.n {
		lt.outOff[i+1] += lt.outOff[i]
	}
	lt.outTo = make([]int32, len(arcs))
	lt.outW = make([]float64, len(arcs))
	fill := slices.Clone(lt.outOff[:lt.n])
	for _, a := range arcs {
		lt.outTo[fill[a.from]] = a.to
		lt.outW[fill[a.from]] = a.w
		fill[a.from]++
	}
}
