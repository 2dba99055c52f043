package iptree

import (
	"sync/atomic"

	"viptree/internal/index"
	"viptree/internal/model"
)

// This file implements the allocation-free scratch state used by the query
// hot paths. Door IDs are dense ordinals assigned at build time (model.DoorID
// is a contiguous index into Venue.Doors), so per-query distance tables are
// plain slices indexed by door ID instead of map[model.DoorID] scratch maps.
// Tables are reset in O(1) with an epoch counter and recycled across queries
// through a lock-free free list, making the warm VIP-Tree Distance path
// allocation-free and safe for concurrent callers. Same-leaf queries read
// the leaf's door table (leaftable.go) through their scratch's walk
// buffers; only Path runs a search, the in-leaf one, on its own scratch.

// freeListSlots is the capacity of a freeList: one slot per worker of a pool
// sized to GOMAXPROCS (the default of every worker pool here) on machines of
// up to 64 cores. Beyond that, a worker allocates its scratch afresh.
const freeListSlots = 64

// freeList recycles query scratch without a lock: get takes an item by
// swapping a slot to nil, put returns it by compare-and-swapping an empty
// slot, and an item that finds every slot full is dropped for the garbage
// collector. It replaces sync.Pool on the read path, whose first Get or Put
// after each garbage collection takes a global mutex (readers then contend
// with each other and with the update storm), and which drops its items
// under the race detector. The zero value is an empty list.
type freeList[T any] struct {
	slots [freeListSlots]atomic.Pointer[T]
}

// get returns an idle item, or a new zero item when the list is empty.
func (f *freeList[T]) get() *T {
	for i := range f.slots {
		if f.slots[i].Load() != nil {
			if v := f.slots[i].Swap(nil); v != nil {
				return v
			}
		}
	}
	return new(T)
}

// put returns v to the list, dropping it when every slot is taken.
func (f *freeList[T]) put(v *T) {
	for i := range f.slots {
		if f.slots[i].Load() == nil && f.slots[i].CompareAndSwap(nil, v) {
			return
		}
	}
}

// doorTable is a dense map from door ID to (distance, via-door), reset in
// O(1) through an epoch-stamped membership set (see epochStamps in
// buildscratch.go): an entry is present only when its door is stamped.
type doorTable struct {
	dist []float64
	via  []model.DoorID
	seen epochStamps
}

// reset prepares the table for a venue with n doors, invalidating all
// entries. It allocates only on first use (or if the venue grew).
func (dt *doorTable) reset(n int) {
	if len(dt.dist) < n {
		dt.dist = make([]float64, n)
		dt.via = make([]model.DoorID, n)
	}
	dt.seen.reset(n)
}

// has reports whether door d has an entry in the current epoch.
func (dt *doorTable) has(d model.DoorID) bool { return dt.seen.has(int(d)) }

// get returns the recorded distance to door d and whether one exists.
func (dt *doorTable) get(d model.DoorID) (float64, bool) {
	if !dt.seen.has(int(d)) {
		return Infinite, false
	}
	return dt.dist[d], true
}

// set records the distance and via-door for door d in the current epoch.
func (dt *doorTable) set(d model.DoorID, dist float64, via model.DoorID) {
	dt.dist[d] = dist
	dt.via[d] = via
	dt.seen.mark(int(d))
}

// viaOf returns the recorded via-door of d, or NoDoor when d has no entry.
func (dt *doorTable) viaOf(d model.DoorID) model.DoorID {
	if !dt.seen.has(int(d)) {
		return NoDoor
	}
	return dt.via[d]
}

// pathScratch holds the reusable buffers of one distance or shortest-path
// query: the partial via-door skeleton, the expanded door sequence, the
// target-side segment of the VIP expansion, the explicit work stack of the
// iterative Algorithm 4, the walks from a same-leaf source to the doors of
// its partition, and the search of same-leaf paths (the in-leaf search) and
// of edges the matrices cannot decompose (a D2D search). All are grown once
// and recycled, so a warm Distance allocates nothing and a warm Path only
// its returned result slice.
type pathScratch struct {
	partial []model.DoorID
	out     []model.DoorID
	tmp     []model.DoorID
	stack   []doorPair
	walk    []float64
	search  leafSearch
}

// distScratch is the reusable state of one IP-Tree distance/path query: the
// two Algorithm-2 runs (source side and target side) plus the path buffers.
type distScratch struct {
	src, dst sourceDists
	path     pathScratch
}

// vipSide holds the per-side result of a VIP distance query, aligned with
// the access doors of the LCA child on that side: dist[i] is the distance
// from the query location to AccessDoors[i] (Infinite when unreachable) and
// via[i] the superior door of the location's partition achieving it.
type vipSide struct {
	dist []float64
	via  []model.DoorID
}

// resize prepares the side for a node with n access doors, reusing the
// backing arrays whenever they are large enough.
func (s *vipSide) resize(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.via = make([]model.DoorID, n)
	}
	s.dist = s.dist[:n]
	s.via = s.via[:n]
}

// vipScratch is the reusable state of one VIP-Tree distance/path query.
type vipScratch struct {
	s, d vipSide
	path pathScratch
}

// nodeDistTable caches, per tree node, the distances from the query location
// to the node's access doors (aligned with Node.AccessDoors) — the nodeDists
// working set of Algorithm 5. The per-node slices are reset by epoch and
// their backing arrays recycled across queries, so a warm kNN/Range query
// never reallocates them.
type nodeDistTable struct {
	vals [][]float64
	seen epochStamps
}

// reset prepares the table for a tree with n nodes, invalidating all entries.
func (nt *nodeDistTable) reset(n int) {
	if len(nt.vals) < n {
		nt.vals = make([][]float64, n)
	}
	nt.seen.reset(n)
}

// get returns the cached access-door distances of node n, if present.
func (nt *nodeDistTable) get(n NodeID) ([]float64, bool) {
	if !nt.seen.has(int(n)) {
		return nil, false
	}
	return nt.vals[n], true
}

// put stamps node n and returns its distance slice resized to size, reusing
// the backing array from earlier queries whenever it is large enough.
func (nt *nodeDistTable) put(n NodeID, size int) []float64 {
	s := nt.vals[n]
	if cap(s) < size {
		s = make([]float64, size)
	}
	s = s[:size]
	nt.vals[n] = s
	nt.seen.mark(int(n))
	return s
}

// objScratch is the reusable state of one kNN/Range traversal (Algorithm 5):
// the per-node access-door distance cache, the best-first priority queue, the
// per-object best distances of leaf scans, the query's distances to the
// doors of its own leaf and the result accumulator. It is recycled through
// the object index's free list, keeping the warm query path down to a single
// allocation (the returned result slice).
type objScratch struct {
	nodes nodeDistTable
	heap  []queuedNode
	// objDist[id] records the best distance to object id seen by the current
	// leaf scan; entries are valid when id is in the objSeen stamped set.
	objDist []float64
	objSeen epochStamps
	results []index.ObjectResult
	// cmBase/cmRows are the compact (finite base distance, matrix row) pairs
	// gathered once per childMinDist call, replacing the per-door refilter
	// of the combination loop.
	cmBase []float64
	cmRows []int32
	// walk holds the walks from the query to the doors of its partition,
	// and leafDoors its distance to every door of its own leaf, read from
	// the leaf's door table by scanLeaf.
	walk      []float64
	leafDoors []float64
}

// bumpObjEpoch starts a fresh per-object marking generation for a set of n
// objects (one generation per scanned leaf).
func (sc *objScratch) bumpObjEpoch(n int) {
	if len(sc.objDist) < n {
		sc.objDist = make([]float64, n)
	}
	sc.objSeen.reset(n)
}
