package iptree

import (
	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the shortest-distance machinery of Section 3.1:
// Algorithm 2 (distances from a location to all access doors of an ancestor
// node) and Algorithm 3 (shortest distance between two arbitrary locations).

// sourceDists holds the result of Algorithm 2 for one query location: the
// distance from the location to every access door encountered while climbing
// from its leaf towards an ancestor node, plus the door through which each
// distance was achieved (used to recover shortest paths). Distances live in
// a dense per-door table recycled across queries, so a warm run allocates
// nothing.
type sourceDists struct {
	// tab records, per door, the shortest distance from the source and the
	// previous door on that shortest path: an access door of the child
	// level, or the superior door of the source partition, or NoDoor when
	// the source reaches the door without passing another recorded door.
	tab doorTable
	// nodeOrder lists the nodes climbed, from the leaf to the target.
	nodeOrder []NodeID
}

// reset invalidates the recorded distances for a venue with n doors.
func (s *sourceDists) reset(n int) {
	s.tab.reset(n)
	s.nodeOrder = s.nodeOrder[:0]
}

// distancesToNode implements Algorithm 2: it computes dist(src, d) for every
// access door d of the ancestor node target of Leaf(src), filling in the
// distances to the access doors of every node on the way. The result is
// written into sd, which must have been reset for this venue.
func (t *Tree) distancesToNode(src model.Location, target NodeID, sd *sourceDists) {
	leaf := t.Leaf(src.Partition)
	t.seedLeafDistances(src, leaf, sd)
	sd.nodeOrder = append(sd.nodeOrder, leaf)
	child := leaf
	for child != target {
		parent := t.nodes[child].Parent
		if parent == invalidNode {
			break
		}
		t.propagateToParent(child, parent, sd)
		sd.nodeOrder = append(sd.nodeOrder, parent)
		child = parent
	}
}

// seedLeafDistances computes dist(src, d) for every access door d of the
// leaf containing src using the superior doors of the source partition
// (Section 3.1.1, Eq. 1 restricted to superior doors). The superior doors'
// row positions and the access doors' column positions in the leaf matrix
// are precomputed, so the double loop sweeps the matrix slab positionally —
// no binary searches.
func (t *Tree) seedLeafDistances(src model.Location, leaf NodeID, sd *sourceDists) {
	v := t.venue
	mat := t.nodes[leaf].Matrix
	sup := t.pk.superiorDoorsOf(src.Partition)
	supRows := t.pk.supRowsOf(src.Partition)
	cols := t.pk.adPosInOwn[leaf]
	ads := t.nodes[leaf].AccessDoors
	// Superior door outer, access door inner: the walk distance to each
	// superior door is computed once, and the per-door first-wins strict-<
	// update offers each access door its candidates in superior-door order.
	for si, s := range sup {
		ri := supRows[si]
		if ri < 0 {
			continue
		}
		d := v.DistToDoor(src, s)
		for ai, a := range ads {
			ci := cols[ai]
			if ci < 0 {
				continue
			}
			md := mat.distAt(int(ri), int(ci))
			if md == Infinite {
				continue
			}
			total := d + md
			if cur, ok := sd.tab.get(a); !ok || total < cur {
				if s == a {
					sd.tab.set(a, total, NoDoor)
				} else {
					sd.tab.set(a, total, s)
				}
			}
		}
	}
}

// propagateToParent extends the distances from the access doors of child to
// the access doors of parent using the parent's distance matrix (Lemma 1 and
// Eq. 2). Doors whose distance is already known are not recomputed. The
// child access doors' row positions and the parent access doors' positions
// in the parent's own matrix are precomputed, so the climb is fully
// positional.
func (t *Tree) propagateToParent(child, parent NodeID, sd *sourceDists) {
	mat := t.nodes[parent].Matrix
	childAD := t.nodes[child].AccessDoors
	childRows := t.pk.adPosInParent[child]
	parentPos := t.pk.adPosInOwn[parent]
	for pi, d := range t.nodes[parent].AccessDoors {
		if sd.tab.has(d) {
			continue
		}
		ci := parentPos[pi]
		if ci < 0 {
			continue
		}
		best := Infinite
		bestVia := NoDoor
		for ki, di := range childAD {
			ri := childRows[ki]
			if ri < 0 {
				continue
			}
			base, ok := sd.tab.get(di)
			if !ok {
				continue
			}
			md := mat.distAt(int(ri), int(ci))
			if md == Infinite {
				continue
			}
			if base+md < best {
				best = base + md
				bestVia = di
			}
		}
		if best < Infinite {
			sd.tab.set(d, best, bestVia)
		}
	}
}

// Distance implements Algorithm 3: the shortest indoor distance between two
// arbitrary locations. Two locations in one leaf are answered from the
// leaf's door table (leaftable.go) instead of the paper's D2D expansion.
// The warm path is allocation-free: query scratch is recycled through a
// lock-free free list, so concurrent callers are safe and do not contend.
func (t *Tree) Distance(s, d model.Location) float64 {
	sc := t.distScratches.get()
	var dist float64
	if leaf := t.Leaf(s.Partition); leaf == t.Leaf(d.Partition) {
		dist = t.sameLeafDistance(s, d, leaf, &sc.path.walk)
	} else {
		dist, _, _, _ = t.distanceInternal(s, d, sc)
	}
	t.distScratches.put(sc)
	return dist
}

// DistanceBatch implements index.DistanceBatcher: out[i] is
// Distance(pairs[i].S, pairs[i].T), with the pairs fanned over workers
// goroutines (workers <= 1 runs on the calling goroutine). out must be at
// least len(pairs) long. Each pair runs its own Distance, so the results are
// bit-identical to per-pair calls at any worker count.
func (t *Tree) DistanceBatch(pairs []index.LocationPair, out []float64, workers int) {
	distanceBatch(t, pairs, out, workers)
}

// distanceBatchRun is the number of consecutive pairs one work item of a
// distance batch answers. A cross-leaf Distance costs about as much as
// handing out one item (the shared cursor, a scratch get and put, an out
// write next to the other worker's), so items of one pair made a
// two-worker batch slower than a sequential loop.
const distanceBatchRun = 16

// distanceBatch answers a distance batch for either tree: fixed runs of
// distanceBatchRun pairs fan out over the workers, and each pair runs q's
// own Distance.
func distanceBatch(q interface {
	Distance(s, d model.Location) float64
}, pairs []index.LocationPair, out []float64, workers int) {
	if len(pairs) == 0 {
		return
	}
	_ = out[len(pairs)-1] // fail fast when out is too short
	runs := (len(pairs) + distanceBatchRun - 1) / distanceBatchRun
	runParallel(runs, workers, func(_, r int) {
		for i := r * distanceBatchRun; i < min((r+1)*distanceBatchRun, len(pairs)); i++ {
			out[i] = q.Distance(pairs[i].S, pairs[i].T)
		}
	})
}

// distanceInternal computes the shortest distance between s and d, which
// lie in different leaves, and returns the source-side and target-side
// Algorithm-2 results (pointing into sc) plus the pair of access doors of
// the LCA's children realising the minimum (used by Path).
func (t *Tree) distanceInternal(s, d model.Location, sc *distScratch) (float64, *sourceDists, *sourceDists, [2]model.DoorID) {
	none := [2]model.DoorID{NoDoor, NoDoor}
	leafS := t.Leaf(s.Partition)
	leafD := t.Leaf(d.Partition)
	lca := t.LCA(leafS, leafD)
	ns := t.ChildToward(lca, leafS)
	nt := t.ChildToward(lca, leafD)
	sdS, sdD := &sc.src, &sc.dst
	numDoors := t.venue.NumDoors()
	sdS.reset(numDoors)
	sdD.reset(numDoors)
	t.distancesToNode(s, ns, sdS)
	t.distancesToNode(d, nt, sdD)
	mat := t.nodes[lca].Matrix
	best := Infinite
	bestPair := none
	// Both children's access-door positions among the LCA matrix
	// rows/columns are precomputed — the pairing loop is positional.
	rowS := t.pk.adPosInParent[ns]
	colD := t.pk.adPosInParent[nt]
	for i, di := range t.nodes[ns].AccessDoors {
		if rowS[i] < 0 {
			continue
		}
		ds, ok := sdS.tab.get(di)
		if !ok {
			continue
		}
		for j, dj := range t.nodes[nt].AccessDoors {
			if colD[j] < 0 {
				continue
			}
			dd, ok := sdD.tab.get(dj)
			if !ok {
				continue
			}
			md := mat.distAt(int(rowS[i]), int(colD[j]))
			if md == Infinite {
				continue
			}
			if total := ds + md + dd; total < best {
				best = total
				bestPair = [2]model.DoorID{di, dj}
			}
		}
	}
	return best, sdS, sdD, bestPair
}
