package iptree

import (
	"time"

	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the Vivid IP-Tree (Section 2.2 and Sections 3.1.2 and
// 3.3): an IP-Tree that additionally materialises, for every door, the
// distance and next-hop door to every access door of every ancestor of the
// leaves containing that door. Shortest-distance queries then cost O(ρ²)
// because the upward climb of Algorithm 2 is replaced by direct lookups.

// VIPTree is a VIP-Tree: an IP-Tree plus the per-door materialised distances.
type VIPTree struct {
	*Tree
	// vpk holds the per-door materialised entries (arena.go): one int32 slab
	// of ancestor node lists, one float64 slab of distances and one int32
	// slab of first-door IDs, indexed by per-door offsets. Materialisation
	// and snapshot restore write straight into it.
	vpk *vipPacked
	// vipScratches recycles per-query scratch, keeping the warm Distance
	// path allocation-free and safe for concurrent callers.
	vipScratches freeList[vipScratch]
}

// BuildVIPTree constructs a VIP-Tree over the venue.
func BuildVIPTree(v *model.Venue, opts Options) (*VIPTree, error) {
	t, err := BuildIPTree(v, opts)
	if err != nil {
		return nil, err
	}
	return NewVIPTree(t), nil
}

// MustBuildVIPTree is BuildVIPTree but panics on error.
func MustBuildVIPTree(v *model.Venue, opts Options) *VIPTree {
	vt, err := BuildVIPTree(v, opts)
	if err != nil {
		panic(err)
	}
	return vt
}

// NewVIPTree materialises the per-door ancestor distances on top of an
// existing IP-Tree. The IP-Tree is shared, not copied. The VIP slabs are
// sized from the topology first; every door's entries then depend only on
// the (read-only) tree and fill a block no other door touches, so the
// per-door loop fans out over a worker pool (Options.Parallelism) with
// bit-identical results at any parallelism.
func NewVIPTree(t *Tree) *VIPTree {
	start := time.Now()
	numDoors := t.venue.NumDoors()
	vt := &VIPTree{Tree: t, vpk: t.newVIPPacked()}
	workers := min(t.opts.workers(), numDoors)
	scratches := make([]vipScratchBuild, max(workers, 1))
	runParallel(numDoors, workers, func(w, i int) {
		vt.materialiseDoor(model.DoorID(i), &scratches[w])
	})
	t.timings.VIPMaterialise = time.Since(start)
	return vt
}

// Name implements index.DistanceQuerier.
func (vt *VIPTree) Name() string { return "VIP-Tree" }

// materialiseDoor computes the VIP entries of a single door by climbing the
// tree from every leaf containing it, exactly like Algorithm 2 but with the
// door itself as the source, and writes them into the door's block of the
// VIP slabs. The climb visits the door's node list, which is already in
// (level, ID) order, so children are handled before parents. The
// distance/via working set is the worker's dense epoch-stamped door table,
// and the entries go straight into the slabs.
func (vt *VIPTree) materialiseDoor(d model.DoorID, sc *vipScratchBuild) {
	t := vt.Tree
	sc.reset(t.venue.NumDoors())
	tab := &sc.tab

	// Seed with the leaf matrix distances from d to each leaf's access doors
	// (d is a row of every matrix of a leaf containing it, so its row
	// position is resolved once and the columns swept positionally).
	for _, leaf := range t.pk.leavesOfDoor.of(d) {
		mat := t.nodes[leaf].Matrix
		ri, ok := mat.rowIndexOf(d)
		if !ok {
			continue
		}
		for _, a := range t.nodes[leaf].AccessDoors {
			ci, ok := mat.colIndexOf(a)
			if !ok {
				continue
			}
			md := mat.distAt(ri, ci)
			if md == Infinite {
				continue
			}
			if cur, ok := tab.get(a); !ok || md < cur {
				if a == d {
					tab.set(a, md, NoDoor)
				} else {
					tab.set(a, md, d)
				}
			}
		}
	}
	pk := vt.vpk
	nodes := pk.nodes[pk.nodesOff[d]:pk.nodesOff[d+1]]
	for _, n := range nodes {
		node := &t.nodes[n]
		if node.IsLeaf() {
			continue
		}
		// Resolve the matrix row of every child access door once per node;
		// the propagation loop below then reads entries positionally. Doors
		// without a row would contribute only Infinite entries and are
		// dropped up front.
		sc.propDoors = sc.propDoors[:0]
		sc.propRows = sc.propRows[:0]
		for _, c := range node.Children {
			for _, di := range t.nodes[c].AccessDoors {
				if ri, ok := node.Matrix.rowIndexOf(di); ok {
					sc.propDoors = append(sc.propDoors, di)
					sc.propRows = append(sc.propRows, int32(ri))
				}
			}
		}
		// Propagate from whichever children already have distances.
		for _, dAccess := range node.AccessDoors {
			best, bestVia := Infinite, NoDoor
			if cur, ok := tab.get(dAccess); ok {
				best = cur
				bestVia = tab.viaOf(dAccess)
			}
			if ci, ok := node.Matrix.colIndexOf(dAccess); ok {
				for k, di := range sc.propDoors {
					base, ok := tab.get(di)
					if !ok {
						continue
					}
					md := node.Matrix.distAt(int(sc.propRows[k]), ci)
					if md == Infinite {
						continue
					}
					if base+md < best {
						best = base + md
						if di == dAccess {
							bestVia = tab.viaOf(di)
						} else {
							bestVia = di
						}
					}
				}
			}
			if best < Infinite {
				tab.set(dAccess, best, bestVia)
			}
		}
	}
	// Record an entry for every access door of every ancestor node: distance
	// plus the literal first door on the path (computed by decomposing the
	// first hop of the via chain).
	off := pk.entryOff[d]
	for _, n := range nodes {
		for _, a := range t.nodes[n].AccessDoors {
			if dv, ok := tab.get(a); ok {
				pk.dist[off] = dv
				pk.next[off] = int32(vt.firstDoorOnPath(d, a, tab))
			} else {
				pk.dist[off] = Infinite
				pk.next[off] = int32(NoDoor)
			}
			off++
		}
	}
}

// firstDoorOnPath returns the first door after src on the shortest path from
// src to target, following the via chain recorded during materialisation and
// decomposing the first partial edge with the distance matrices.
func (vt *VIPTree) firstDoorOnPath(src, target model.DoorID, tab *doorTable) model.DoorID {
	if src == target {
		return NoDoor
	}
	// Unwind the via chain from target back towards src; the element closest
	// to src on the chain is the first partial hop.
	first := target
	for cur := target; cur != NoDoor; {
		if !tab.has(cur) {
			first = cur
			break
		}
		prev := tab.viaOf(cur)
		if prev == NoDoor || prev == src {
			first = cur
			break
		}
		first = cur
		cur = prev
	}
	return vt.firstDoorOfEdge(src, first, maxDecompose)
}

// firstDoorOfEdge returns the first door after a on the shortest path from a
// to b by repeatedly consulting the matrices' next-hop entries.
func (vt *VIPTree) firstDoorOfEdge(a, b model.DoorID, budget int) model.DoorID {
	t := vt.Tree
	for budget > 0 {
		budget--
		if a == b {
			return NoDoor
		}
		if !t.doorIsAccess(a) && !t.doorIsAccess(b) {
			return b
		}
		mat, row, col, ok := t.decompositionEntry(a, b)
		if !ok {
			break
		}
		next := mat.nextAt(row, col)
		if next == NoDoor {
			return b
		}
		if next == a || next == b {
			break
		}
		b = next
	}
	// Fallback: resolve with a plain graph search (rare).
	_, doors := t.venue.D2D().Path(a, b)
	if len(doors) >= 2 {
		return doors[1]
	}
	return b
}

// entriesOffset returns the slab offset of the materialised entries of door
// d towards the access doors of `node` (the block vpk.dist[off:off+|AD|],
// aligned with Node.AccessDoors), walking the door's short ancestor list.
func (vt *VIPTree) entriesOffset(d model.DoorID, node NodeID) (int, bool) {
	pk := vt.vpk
	off := int(pk.entryOff[d])
	for _, id := range pk.nodes[pk.nodesOff[d]:pk.nodesOff[d+1]] {
		if NodeID(id) == node {
			return off, true
		}
		off += len(vt.nodes[id].AccessDoors)
	}
	return 0, false
}

// Distance implements the VIP-Tree shortest-distance query (Section 3.1.2):
// O(ρ²) lookups via the superior doors of the two partitions and the
// materialised distances to the LCA children's access doors. Two locations
// in one leaf are answered from the leaf's door table, as in Tree.Distance.
// The warm path performs no allocations; scratch is recycled through a
// lock-free free list, so the method is safe for concurrent callers.
func (vt *VIPTree) Distance(s, d model.Location) float64 {
	sc := vt.vipScratches.get()
	var dist float64
	if leaf := vt.Leaf(s.Partition); leaf == vt.Leaf(d.Partition) {
		dist = vt.sameLeafDistance(s, d, leaf, &sc.path.walk)
	} else {
		dist = vt.vipQuery(s, d, sc).dist
	}
	vt.vipScratches.put(sc)
	return dist
}

// DistanceBatch implements index.DistanceBatcher for the VIP-Tree: out[i]
// is the VIP-Tree Distance(pairs[i].S, pairs[i].T), with the pairs fanned
// over workers goroutines, exactly like Tree.DistanceBatch.
func (vt *VIPTree) DistanceBatch(pairs []index.LocationPair, out []float64, workers int) {
	distanceBatch(vt, pairs, out, workers)
}

// vipResult is the outcome of one cross-leaf VIP distance computation: the
// pair/sup/node fields identify the optimal skeleton used by Path; the side
// data lives in the query scratch.
type vipResult struct {
	dist float64
	// pair is the pair of LCA-children access doors realising the minimum.
	pair [2]model.DoorID
	// supS, supD are the superior doors of the source and target partitions
	// through which the optimal pair is reached.
	supS, supD model.DoorID
	// nodeS, nodeD are the LCA children on the source and target sides.
	nodeS, nodeD NodeID
}

// vipQuery computes the shortest distance between s and d, which lie in
// different leaves, using the materialised entries, writing per-side scratch
// into sc and tracking the optimal path skeleton.
func (vt *VIPTree) vipQuery(s, d model.Location, sc *vipScratch) vipResult {
	t := vt.Tree
	leafS := t.Leaf(s.Partition)
	leafD := t.Leaf(d.Partition)
	lca := t.LCA(leafS, leafD)
	ns := t.ChildToward(lca, leafS)
	nt := t.ChildToward(lca, leafD)
	adS, adD := t.nodes[ns].AccessDoors, t.nodes[nt].AccessDoors
	sc.s.resize(len(adS))
	sc.d.resize(len(adD))
	vt.sideDistances(s, ns, sc.s.dist, sc.s.via)
	vt.sideDistances(d, nt, sc.d.dist, sc.d.via)
	mat := t.nodes[lca].Matrix
	res := vipResult{dist: Infinite, nodeS: ns, nodeD: nt,
		pair: [2]model.DoorID{NoDoor, NoDoor}, supS: NoDoor, supD: NoDoor}
	// The positions of both children's access doors among the LCA matrix
	// rows/columns are precomputed, so the double loop sweeps the matrix
	// slab positionally — no door lookups.
	rowS := t.pk.adPosInParent[ns]
	colD := t.pk.adPosInParent[nt]
	for i, di := range adS {
		ds := sc.s.dist[i]
		if ds == Infinite || rowS[i] < 0 {
			continue
		}
		for j, dj := range adD {
			dd := sc.d.dist[j]
			if dd == Infinite || colD[j] < 0 {
				continue
			}
			md := mat.distAt(int(rowS[i]), int(colD[j]))
			if md == Infinite {
				continue
			}
			if total := ds + md + dd; total < res.dist {
				res.dist = total
				res.pair = [2]model.DoorID{di, dj}
				res.supS = sc.s.via[i]
				res.supD = sc.d.via[j]
			}
		}
	}
	return res
}

// sideDistances computes dist(loc, a) for every access door a of `node` (an
// ancestor of the location's leaf) using only the superior doors of the
// location's partition and the materialised per-door distances — the
// modified Algorithm 2 of Section 3.1.2. dist[i] receives the distance to
// AccessDoors[i] and via[i] the superior door achieving it.
func (vt *VIPTree) sideDistances(loc model.Location, node NodeID, dist []float64, via []model.DoorID) {
	t := vt.Tree
	v := t.venue
	ads := t.nodes[node].AccessDoors
	for i := range dist {
		dist[i] = Infinite
		via[i] = NoDoor
	}
	// Each superior door's entry block for this node is one contiguous
	// stretch of the distance slab, scanned sequentially.
	dists := vt.vpk.dist
	for _, sdoor := range t.SuperiorDoors(loc.Partition) {
		base := v.DistToDoor(loc, sdoor)
		off, hasEntries := vt.entriesOffset(sdoor, node)
		for i, a := range ads {
			var md float64
			switch {
			case sdoor == a:
				md = 0
			case hasEntries:
				md = dists[off+i]
			default:
				md = Infinite
			}
			if md == Infinite {
				continue
			}
			if base+md < dist[i] {
				dist[i] = base + md
				via[i] = sdoor
			}
		}
	}
}

// Path implements the VIP-Tree shortest-path query (Section 3.3): the
// distance computation identifies the superior doors and LCA access doors on
// the optimal path, the materialised next-hop doors expand the segments
// between a door and an ancestor access door, and Algorithm 4 expands the
// segment across the LCA. Like the IP-Tree Path, the expansion runs on
// recycled scratch and allocates only the returned slice.
func (vt *VIPTree) Path(s, d model.Location) (float64, []model.DoorID) {
	t := vt.Tree
	sc := vt.vipScratches.get()
	defer vt.vipScratches.put(sc)
	ps := &sc.path
	if leaf := t.Leaf(s.Partition); leaf == t.Leaf(d.Partition) {
		return t.sameLeafPath(s, d, leaf, ps)
	}
	res := vt.vipQuery(s, d, sc)
	if res.dist == Infinite {
		return res.dist, nil
	}
	out := vt.expandToAncestorDoorInto(res.supS, res.nodeS, res.pair[0], ps.out[:0], ps)
	out = t.expandEdgeInto(res.pair[0], res.pair[1], out, ps)
	back := vt.expandToAncestorDoorInto(res.supD, res.nodeD, res.pair[1], ps.tmp[:0], ps)
	ps.tmp = back
	for i := len(back) - 2; i >= 0; i-- {
		out = append(out, back[i])
	}
	out = dedupConsecutive(out)
	ps.out = out
	result := make([]model.DoorID, len(out))
	copy(result, out)
	return res.dist, result
}

// expandToAncestorDoorInto appends the full door sequence from door `from`
// to access door `target` of ancestor node `node` (inclusive of both ends)
// to buf, by repeatedly following the materialised next-hop doors. The
// target's position among the node's access doors is resolved once up
// front, so every hop is a direct read of the door's entry block — no
// per-step scan of the access-door list. Missing entries fall
// back to Algorithm 4.
func (vt *VIPTree) expandToAncestorDoorInto(from model.DoorID, node NodeID, target model.DoorID, buf []model.DoorID, ps *pathScratch) []model.DoorID {
	t := vt.Tree
	ti := -1
	for i, a := range t.nodes[node].AccessDoors {
		if a == target {
			ti = i
			break
		}
	}
	buf = append(buf, from)
	cur := from
	for step := 0; cur != target && step < maxDecompose; step++ {
		off, ok := 0, ti >= 0
		if ok {
			off, ok = vt.entriesOffset(cur, node)
		}
		if !ok {
			// The current door has no materialised entry for this ancestor
			// (the path strayed outside the node); finish with Algorithm 4.
			return t.expandEdgeInto(cur, target, buf, ps)
		}
		next := model.DoorID(vt.vpk.next[off+ti])
		if next == NoDoor {
			next = target
		}
		if next == cur {
			break
		}
		buf = append(buf, next)
		cur = next
	}
	if cur != target {
		buf = t.expandEdgeInto(cur, target, buf, ps)
	}
	return buf
}

// MemoryBytes reports the memory of the VIP-Tree: the underlying IP-Tree
// plus the exact size of the VIP slabs.
func (vt *VIPTree) MemoryBytes() int64 {
	return vt.Tree.MemoryBytes() + vt.vpk.arenaBytes()
}
