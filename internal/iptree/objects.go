package iptree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/updatelog"
)

// This file implements indexing of indoor objects and the k-nearest-
// neighbour and range queries of Section 3.4 (Algorithm 5 with the mindist
// optimisations of Lemmas 8 and 9), plus the object-update operations
// (Insert, Delete, Move) that make the index suitable for moving indoor
// objects — the paper's central advantage over G-tree-style indexes, whose
// object updates touch large parts of the structure. Here an update touches
// only the leaf (or, for a cross-leaf move, the two leaves) containing the
// object.

// ObjectID identifies an object in an ObjectIndex. IDs handed out by
// IndexObjects are the positions in the object slice; IDs handed out by
// Insert reuse deleted slots before growing the set. It aliases int so that
// index.ObjectResult.ObjectID carries the same values.
type ObjectID = int

// Errors reported by the object-update operations.
var (
	// ErrNoSuchObject reports an update addressing an object ID that was
	// never allocated or has been deleted.
	ErrNoSuchObject = errors.New("iptree: no such object")
)

// objEntry is an object together with its distance from a specific access
// door of the leaf containing it.
type objEntry struct {
	objectID ObjectID
	dist     float64
}

// cmpObjEntry orders access-list entries by ascending distance, breaking
// ties on the object ID so that list order — and therefore the order in
// which equidistant objects reach the result collector — is deterministic
// and independent of insertion history.
func cmpObjEntry(a, b objEntry) int {
	if a.dist != b.dist {
		return cmp.Compare(a.dist, b.dist)
	}
	return cmp.Compare(a.objectID, b.objectID)
}

// leafObjects is the embedded-object state of one leaf. Once a leaf is
// referenced by a published epoch it is immutable: the writer clones a leaf
// before its first mutation in each publish generation (copy-on-write at
// leaf granularity) and mutates only the private copy. In-place mutation of
// the private copy keeps an object update down to a couple of in-array
// shifts, which is what makes Move two orders of magnitude cheaper than a
// rebuild even on trees with few, large leaves.
type leafObjects struct {
	// ids lists the leaf's objects in ascending ObjectID order.
	ids []ObjectID
	// locs[i] is the location of ids[i] (kept here so query threads never
	// touch the writer-owned object table).
	locs []model.Location
	// lists[ai] lists the leaf's objects sorted by (distance from the
	// leaf's ai-th access door, ObjectID), aligned with Node.AccessDoors.
	lists [][]objEntry
	// maxID is an exclusive upper bound on the IDs ever present in ids,
	// sizing the per-query dense object scratch. It never shrinks.
	maxID int
}

// clone deep-copies the leaf state so the copy can be mutated in place
// without disturbing epochs that still reference the original.
func (lo *leafObjects) clone() *leafObjects {
	c := &leafObjects{
		ids:   slices.Clone(lo.ids),
		locs:  slices.Clone(lo.locs),
		lists: make([][]objEntry, len(lo.lists)),
		maxID: lo.maxID,
	}
	for ai, l := range lo.lists {
		c.lists[ai] = slices.Clone(l)
	}
	return c
}

// objEpoch is one immutable published version of the object set. Readers
// pin an epoch with a single atomic pointer load and then traverse it with
// no further synchronisation: nothing reachable from an epoch is ever
// mutated. Retired epochs are reclaimed by the garbage collector once the
// last reader drops its pin — the Go runtime provides the grace period an
// explicit RCU scheme would have to track by hand.
type objEpoch struct {
	// seq is the update-log sequence number this epoch reflects: every
	// update with Seq <= seq is visible, none after.
	seq uint64
	// leafData[n] is the object state of leaf n (nil when empty, and
	// always nil for non-leaf nodes).
	leafData []*leafObjects
	// subtreeCount[n] counts the objects in the subtree rooted at n,
	// letting Algorithm 5 skip empty branches.
	subtreeCount []int64
}

// countedMutex is a mutex that counts Lock operations. The object table is
// guarded by one; the read path (KNN/Range) never takes it, and the
// lock-free tests pin that by asserting the count stays flat across a
// query storm.
type countedMutex struct {
	mu  sync.Mutex
	ops atomic.Uint64
}

func (m *countedMutex) Lock() {
	m.ops.Add(1)
	m.mu.Lock()
}

func (m *countedMutex) Unlock() { m.mu.Unlock() }

// Ops returns the number of Lock calls so far.
func (m *countedMutex) Ops() uint64 { return m.ops.Load() }

// ObjectIndex embeds a set of objects into an IP-Tree (or VIP-Tree): each
// object records the leaf that contains it, and every access door of a leaf
// keeps the list of the leaf's objects sorted by distance from that door.
//
// The index is mutable and safe for concurrent use, with reads and writes
// physically separated (an HTAP-style split). All mutations are funneled
// through a single-writer update log (internal/updatelog): Insert, Delete
// and Move submit to the log, whose combining writer applies batches to a
// writer-private shadow copy of the leaf state (copy-on-write at leaf
// granularity) and atomically publishes an immutable objEpoch via one
// pointer swap. kNN and Range queries pin the current epoch with a single
// atomic load and run entirely lock-free — zero mutex or RWMutex
// operations on the read path, no matter how fast concurrent updaters
// churn.
//
// Consistency model: every query observes exactly the state of one
// published epoch — a prefix of the update log. Updates, including
// cross-leaf Moves, are atomic from a reader's view: a query sees a moved
// object at its old location or its new one, never at both or neither
// (this strengthens the pre-epoch design, whose cross-leaf moves were
// documented as non-atomic). When Insert/Delete/Move returns, the update
// is visible to all subsequent queries. ChangeLog exposes the update log,
// whose follower gets every applied update in order.
type ObjectIndex struct {
	tree *Tree
	name string

	// cur is the currently published epoch; never nil. The only
	// read-path synchronisation is the atomic load of this pointer.
	cur atomic.Pointer[objEpoch]
	// log is the single-writer update log all mutations go through.
	log *updatelog.Log

	// Writer-private shadow state; owned by the log's combining writer
	// (updatelog guarantees single-threaded access).
	//
	// shadowLeaf mirrors the next epoch's leafData. leafStamp[n] == gen
	// marks a leaf already cloned (privately mutable) in the current
	// publish generation; publishing bumps gen, so the first mutation of
	// a leaf after a publish clones it and later ones mutate in place.
	shadowLeaf  []*leafObjects
	shadowCount []int64
	leafStamp   []uint64
	gen         uint64
	// countsDirty records whether shadowCount diverged from the published
	// epoch's subtreeCount. Same-leaf moves — the common churn — leave the
	// counts untouched, letting publishEpoch share the previous epoch's
	// array instead of recloning the O(nodes) spine on every publish.
	countsDirty bool

	// tableMu guards the object table below (id allocation, the free list,
	// and the authoritative object locations and leaf assignments). The
	// table is writer- and accessor-side state only: queries never touch
	// it, which the instrumented count verifies.
	tableMu countedMutex
	// objects[id] is the location of object id; stale for deleted slots.
	objects []model.Location
	// objLeaf[id] is the leaf containing object id, or invalidNode when the
	// slot is free.
	objLeaf []NodeID
	// free lists deleted slots available for reuse (popped from the end).
	free []ObjectID
	// alive is the number of live objects.
	alive int

	// objScratches recycles per-query traversal scratch, keeping warm
	// kNN/Range queries down to the result-slice allocation and safe for
	// concurrent callers.
	objScratches freeList[objScratch]

	// objBatchStates recycles the per-batch plan state of
	// KNNBatch/RangeBatch (objbatch.go): the source dedup set, grouping
	// arrays and the climb block arena.
	objBatchStates freeList[objBatchState]
}

// objApplier adapts ObjectIndex to updatelog.Applier without exporting the
// apply hooks on the public type.
type objApplier struct{ oi *ObjectIndex }

func (a objApplier) ApplyUpdate(r *updatelog.Record) error { return a.oi.applyUpdate(r) }
func (a objApplier) PublishEpoch(seq uint64)               { a.oi.publishEpoch(seq) }

// newObjectIndex returns an empty object index over the tree. startSeq is
// the update-log sequence number already reflected in the initial state (0
// for a fresh index, the stamped snapshot seq for a restored one): the
// first applied update gets startSeq+1, which is what lets WAL replay
// resume exactly where the snapshot left off.
func newObjectIndex(t *Tree, name string, startSeq uint64) *ObjectIndex {
	oi := &ObjectIndex{
		tree:        t,
		name:        name,
		shadowLeaf:  make([]*leafObjects, len(t.nodes)),
		shadowCount: make([]int64, len(t.nodes)),
		leafStamp:   make([]uint64, len(t.nodes)),
		gen:         1,
	}
	oi.cur.Store(&objEpoch{
		leafData:     make([]*leafObjects, len(t.nodes)),
		subtreeCount: make([]int64, len(t.nodes)),
	})
	oi.log = updatelog.New(objApplier{oi}, startSeq)
	return oi
}

// IndexObjects embeds the object set into the tree and returns the object
// index used by KNN and Range queries. Object IDs are the slice positions.
// The returned index accepts further Insert/Delete/Move updates.
func (t *Tree) IndexObjects(objects []model.Location) *ObjectIndex {
	oi := newObjectIndex(t, t.Name(), 0)
	oi.objects = append(oi.objects, objects...)
	oi.objLeaf = make([]NodeID, len(objects))
	oi.alive = len(objects)
	// Group object IDs by leaf; iterating in ID order keeps every per-leaf
	// ID list ascending by construction.
	perLeaf := make([][]ObjectID, len(t.nodes))
	for id, o := range objects {
		leaf := t.Leaf(o.Partition)
		oi.objLeaf[id] = leaf
		perLeaf[leaf] = append(perLeaf[leaf], id)
	}
	for leaf, ids := range perLeaf {
		if len(ids) == 0 {
			continue
		}
		oi.shadowLeaf[leaf] = oi.buildLeaf(NodeID(leaf), ids)
		oi.addCountPath(NodeID(leaf), int64(len(ids)))
	}
	oi.publishEpoch(0)
	return oi
}

// IndexObjects embeds the object set into the VIP-Tree; the object machinery
// is shared with the IP-Tree, the returned index merely reports the VIP-Tree
// name in benchmark output.
func (vt *VIPTree) IndexObjects(objects []model.Location) *ObjectIndex {
	oi := vt.Tree.IndexObjects(objects)
	oi.name = vt.Name()
	return oi
}

// buildLeaf constructs the state of one leaf from scratch: ids must be
// ascending, and locations are read from the object table (callers hold the
// writer role or are single-threaded).
func (oi *ObjectIndex) buildLeaf(leaf NodeID, ids []ObjectID) *leafObjects {
	node := &oi.tree.nodes[leaf]
	lo := &leafObjects{
		ids:   ids,
		locs:  make([]model.Location, len(ids)),
		lists: make([][]objEntry, len(node.AccessDoors)),
		maxID: ids[len(ids)-1] + 1,
	}
	for i, id := range ids {
		lo.locs[i] = oi.objects[id]
	}
	dists := make([]float64, len(node.AccessDoors))
	flat := make([]objEntry, len(node.AccessDoors)*len(ids))
	for ai := range node.AccessDoors {
		lo.lists[ai] = flat[ai*len(ids) : (ai+1)*len(ids) : (ai+1)*len(ids)]
	}
	for i, id := range ids {
		oi.accessDists(leaf, lo.locs[i], dists)
		for ai := range lo.lists {
			lo.lists[ai][i] = objEntry{objectID: id, dist: dists[ai]}
		}
	}
	for ai := range lo.lists {
		slices.SortFunc(lo.lists[ai], cmpObjEntry)
	}
	return lo
}

// accessDists computes the distance from an object location inside the leaf
// to every access door of the leaf, into dists (length: the access-door
// count): per door the best combination of walking to one of the
// partition's doors and the leaf matrix from there (Section 3.4). Row
// positions are resolved once per door and the flat matrix swept
// positionally — a leaf's adPosInOwn positions are exactly its matrix column
// positions — which keeps an object update a few microseconds.
func (oi *ObjectIndex) accessDists(leaf NodeID, o model.Location, dists []float64) {
	t := oi.tree
	mat := t.nodes[leaf].Matrix
	cols := t.pk.adPosInOwn[leaf]
	for ai := range dists {
		dists[ai] = Infinite
	}
	for _, dp := range t.venue.Partition(o.Partition).Doors {
		row, ok := mat.rowIndexOf(dp)
		if !ok {
			continue
		}
		walk := t.venue.DistToDoor(o, dp)
		for ai, col := range cols {
			if col < 0 {
				continue
			}
			md := mat.distAt(row, int(col))
			if md == Infinite {
				continue
			}
			if d := walk + md; d < dists[ai] {
				dists[ai] = d
			}
		}
	}
}

// addCountPath adds delta to the shadow object count of every node from the
// leaf up to the root. Writer-only.
func (oi *ObjectIndex) addCountPath(leaf NodeID, delta int64) {
	oi.countsDirty = true
	for n := leaf; n != invalidNode; n = oi.tree.nodes[n].Parent {
		oi.shadowCount[n] += delta
	}
}

// shadowLeafFor returns the writer-private (mutable) state of the leaf,
// cloning the epoch-shared version on the first touch of each publish
// generation. Writer-only.
func (oi *ObjectIndex) shadowLeafFor(leaf NodeID) *leafObjects {
	if oi.leafStamp[leaf] == oi.gen {
		return oi.shadowLeaf[leaf]
	}
	lo := oi.shadowLeaf[leaf]
	if lo == nil {
		lo = &leafObjects{lists: make([][]objEntry, len(oi.tree.nodes[leaf].AccessDoors))}
	} else {
		lo = lo.clone()
	}
	oi.shadowLeaf[leaf] = lo
	oi.leafStamp[leaf] = oi.gen
	return lo
}

// publishEpoch atomically publishes the shadow state as the epoch covering
// log prefix [1..seq]. Writer-only (updatelog.Applier hook); also called
// once at build/restore time with seq 0. O(nodes): the per-leaf states are
// shared by pointer, only the two spine arrays are copied.
func (oi *ObjectIndex) publishEpoch(seq uint64) {
	counts := oi.cur.Load().subtreeCount
	if oi.countsDirty || counts == nil {
		counts = slices.Clone(oi.shadowCount)
		oi.countsDirty = false
	}
	oi.cur.Store(&objEpoch{
		seq:          seq,
		leafData:     slices.Clone(oi.shadowLeaf),
		subtreeCount: counts,
	})
	// Epoch-shared leaves must no longer be mutated in place; bumping the
	// generation invalidates every leafStamp at once.
	oi.gen++
}

// leafFor validates the location and returns the leaf containing it.
func (oi *ObjectIndex) leafFor(loc model.Location) (NodeID, error) {
	if int(loc.Partition) < 0 || int(loc.Partition) >= oi.tree.venue.NumPartitions() {
		return invalidNode, fmt.Errorf("iptree: object partition %d out of range [0,%d)",
			loc.Partition, oi.tree.venue.NumPartitions())
	}
	return oi.tree.Leaf(loc.Partition), nil
}

// applyUpdate applies one log record to the shadow state (updatelog.Applier
// hook; single-threaded by the log). A validation failure leaves the shadow
// untouched and the record unsequenced.
func (oi *ObjectIndex) applyUpdate(r *updatelog.Record) error {
	switch r.Op {
	case updatelog.OpInsert:
		leaf, err := oi.leafFor(r.Loc)
		if err != nil {
			return err
		}
		oi.tableMu.Lock()
		var id ObjectID
		if n := len(oi.free); n > 0 {
			id = oi.free[n-1]
			oi.free = oi.free[:n-1]
			oi.objects[id] = r.Loc
		} else {
			id = len(oi.objects)
			oi.objects = append(oi.objects, r.Loc)
			oi.objLeaf = append(oi.objLeaf, invalidNode)
		}
		oi.objLeaf[id] = leaf
		oi.alive++
		oi.tableMu.Unlock()
		oi.insertIntoLeaf(oi.shadowLeafFor(leaf), leaf, id, r.Loc)
		oi.addCountPath(leaf, 1)
		r.ID = id
		return nil

	case updatelog.OpDelete:
		oi.tableMu.Lock()
		if r.ID < 0 || r.ID >= len(oi.objLeaf) || oi.objLeaf[r.ID] == invalidNode {
			oi.tableMu.Unlock()
			return fmt.Errorf("%w: id %d", ErrNoSuchObject, r.ID)
		}
		leaf := oi.objLeaf[r.ID]
		oi.objLeaf[r.ID] = invalidNode
		oi.free = append(oi.free, r.ID)
		oi.alive--
		oi.tableMu.Unlock()
		oi.removeFromLeaf(oi.shadowLeafFor(leaf), r.ID)
		oi.addCountPath(leaf, -1)
		return nil

	case updatelog.OpMove:
		dst, err := oi.leafFor(r.Loc)
		if err != nil {
			return err
		}
		oi.tableMu.Lock()
		if r.ID < 0 || r.ID >= len(oi.objLeaf) || oi.objLeaf[r.ID] == invalidNode {
			oi.tableMu.Unlock()
			return fmt.Errorf("%w: id %d", ErrNoSuchObject, r.ID)
		}
		src := oi.objLeaf[r.ID]
		oi.objects[r.ID] = r.Loc
		oi.objLeaf[r.ID] = dst
		oi.tableMu.Unlock()
		if src == dst {
			lo := oi.shadowLeafFor(src)
			oi.removeFromLeaf(lo, r.ID)
			oi.insertIntoLeaf(lo, src, r.ID, r.Loc)
		} else {
			// Both leaf edits land in the same epoch, so readers see the
			// move atomically — at the old location or the new one, never
			// both or neither.
			oi.removeFromLeaf(oi.shadowLeafFor(src), r.ID)
			oi.addCountPath(src, -1)
			oi.insertIntoLeaf(oi.shadowLeafFor(dst), dst, r.ID, r.Loc)
			oi.addCountPath(dst, 1)
		}
		return nil
	}
	return fmt.Errorf("iptree: unknown update op %v", r.Op)
}

// Insert adds an object at the location and returns its ID, reusing the slot
// of a previously deleted object when one is free. The update is routed
// through the update log; on return it is applied and visible in the
// published epoch.
func (oi *ObjectIndex) Insert(loc model.Location) (ObjectID, error) {
	id, _, err := oi.log.Submit(updatelog.OpInsert, 0, loc)
	return id, err
}

// Delete removes the object. The update is routed through the update log;
// on return it is applied and visible in the published epoch.
func (oi *ObjectIndex) Delete(id ObjectID) error {
	_, _, err := oi.log.Submit(updatelog.OpDelete, id, model.Location{})
	return err
}

// Move relocates the object to the new location. Cost is bounded by the
// sizes of the source and target leaves: only their access lists are
// touched, every other leaf of the tree is unaffected — the update locality
// that makes the index suitable for moving indoor objects. The update is
// routed through the update log; on return it is applied and visible in the
// published epoch, and the move is atomic from every reader's view even
// when it crosses leaves.
func (oi *ObjectIndex) Move(id ObjectID, loc model.Location) error {
	_, _, err := oi.log.Submit(updatelog.OpMove, id, loc)
	return err
}

// insertIntoLeaf adds the object to the writer-private leaf state in place:
// the ID and location lists gain one entry at their sorted position, and
// each access list gains the object at the position given by its distance
// from that access door (ties broken on ObjectID). Cost is a couple of
// in-array shifts per access list — no list is rebuilt, and allocation
// happens only when a backing array must grow.
func (oi *ObjectIndex) insertIntoLeaf(lo *leafObjects, leaf NodeID, id ObjectID, loc model.Location) {
	pos := sort.SearchInts(lo.ids, id)
	lo.ids = slices.Insert(lo.ids, pos, id)
	lo.locs = slices.Insert(lo.locs, pos, loc)
	lo.maxID = max(lo.maxID, id+1)
	var distBuf [16]float64
	dists := distBuf[:]
	if len(lo.lists) > len(distBuf) {
		dists = make([]float64, len(lo.lists))
	}
	dists = dists[:len(lo.lists)]
	oi.accessDists(leaf, loc, dists)
	for ai := range lo.lists {
		e := objEntry{objectID: id, dist: dists[ai]}
		list := lo.lists[ai]
		i := sort.Search(len(list), func(j int) bool { return cmpObjEntry(list[j], e) > 0 })
		lo.lists[ai] = slices.Insert(list, i, e)
	}
}

// removeFromLeaf deletes the object from the writer-private leaf state in
// place, shifting each access list over the removed entry. The leafObjects
// value and its backing arrays are kept for reuse even when the leaf
// empties.
func (oi *ObjectIndex) removeFromLeaf(lo *leafObjects, id ObjectID) {
	pos := sort.SearchInts(lo.ids, id)
	if pos >= len(lo.ids) || lo.ids[pos] != id {
		return
	}
	lo.ids = slices.Delete(lo.ids, pos, pos+1)
	lo.locs = slices.Delete(lo.locs, pos, pos+1)
	for ai, list := range lo.lists {
		if i := slices.IndexFunc(list, func(e objEntry) bool { return e.objectID == id }); i >= 0 {
			lo.lists[ai] = slices.Delete(list, i, i+1)
		}
	}
}

// Name implements index.ObjectQuerier.
func (oi *ObjectIndex) Name() string { return oi.name }

// Objects returns a copy of the object table. Slots of deleted objects hold
// their last location; use Location to distinguish live objects.
func (oi *ObjectIndex) Objects() []model.Location {
	oi.tableMu.Lock()
	defer oi.tableMu.Unlock()
	out := make([]model.Location, len(oi.objects))
	copy(out, oi.objects)
	return out
}

// Location returns the current location of the object and whether it is
// alive, read from the writer's table (it may be ahead of the published
// epoch by the updates of a batch still being applied).
func (oi *ObjectIndex) Location(id ObjectID) (model.Location, bool) {
	oi.tableMu.Lock()
	defer oi.tableMu.Unlock()
	if id < 0 || id >= len(oi.objLeaf) || oi.objLeaf[id] == invalidNode {
		return model.Location{}, false
	}
	return oi.objects[id], true
}

// NumObjects returns the number of live objects.
func (oi *ObjectIndex) NumObjects() int {
	oi.tableMu.Lock()
	defer oi.tableMu.Unlock()
	return oi.alive
}

// Epoch returns the sequence number of the published epoch: 0 for a fresh
// index, the stamped snapshot seq for a restored one, advancing by one per
// applied update. Queries never advance it.
func (oi *ObjectIndex) Epoch() uint64 { return oi.cur.Load().seq }

// ChangeLog returns the update log behind the index, which numbers every
// applied update gap-free. HeadSeq/PublishedSeq report the applied-epoch
// lag, and SetFollower attaches the one consumer of the applied records (a
// write-ahead log). The log keeps no record itself, so an index under
// sustained churn holds no more memory than its objects.
func (oi *ObjectIndex) ChangeLog() *updatelog.Log { return oi.log }

// currentEpoch pins the published epoch: one atomic load, no locks. The
// epoch is immutable and remains valid (and consistent) for as long as the
// caller holds the pointer.
func (oi *ObjectIndex) currentEpoch() *objEpoch { return oi.cur.Load() }

// Tree returns the tree the objects are embedded in.
func (oi *ObjectIndex) Tree() *Tree { return oi.tree }

// MemoryBytes estimates the memory used by the object lists and the object
// table, using unsafe.Sizeof-derived per-element sizes (memsize.go) so the
// estimate tracks the actual types. The leaf states are measured through
// the published epoch (the shadow shares them outside of update bursts).
func (oi *ObjectIndex) MemoryBytes() int64 {
	ep := oi.currentEpoch()
	var total int64
	for _, lo := range ep.leafData {
		if lo == nil {
			continue
		}
		total += int64(len(lo.ids))*(sizeofInt+sizeofLocation) + 3*sizeofSliceHeader + sizeofInt
		for _, es := range lo.lists {
			total += int64(len(es))*sizeofObjEntry + sizeofSliceHeader
		}
	}
	oi.tableMu.Lock()
	total += int64(len(oi.objects))*sizeofLocation + int64(len(oi.objLeaf))*sizeofNodeID + int64(len(oi.free))*sizeofInt
	oi.tableMu.Unlock()
	total += int64(len(ep.leafData)) * 8 * 2     // epoch + shadow *leafObjects pointers
	total += int64(len(ep.subtreeCount)) * 8 * 2 // epoch + shadow counts
	total += int64(len(oi.leafStamp)) * 8
	return total
}

// KNN returns the k objects nearest to q, sorted by ascending distance with
// ties broken on ascending ObjectID (Algorithm 5). Fewer than k results are
// returned if the object set is smaller than k or parts of it are
// unreachable. The query runs against the current epoch: one atomic load,
// then zero lock operations.
func (oi *ObjectIndex) KNN(q model.Location, k int) []index.ObjectResult {
	return oi.knnAt(oi.currentEpoch(), q, k)
}

// knnAt runs a kNN query against a pinned epoch.
func (oi *ObjectIndex) knnAt(ep *objEpoch, q model.Location, k int) []index.ObjectResult {
	if k <= 0 || ep.subtreeCount[oi.tree.root] == 0 {
		return nil
	}
	return oi.branchAndBound(ep, q, k, Infinite)
}

// Range returns every object within distance r of q, sorted by ascending
// distance with ties broken on ascending ObjectID (Section 3.4). Like KNN
// it runs lock-free against the current epoch.
func (oi *ObjectIndex) Range(q model.Location, r float64) []index.ObjectResult {
	return oi.rangeAt(oi.currentEpoch(), q, r)
}

// rangeAt runs a range query against a pinned epoch.
func (oi *ObjectIndex) rangeAt(ep *objEpoch, q model.Location, r float64) []index.ObjectResult {
	if ep.subtreeCount[oi.tree.root] == 0 {
		return nil
	}
	return oi.branchAndBound(ep, q, 0, r)
}

// queuedNode is an entry of the best-first priority queue of Algorithm 5.
type queuedNode struct {
	node    NodeID
	mindist float64
}

// pushQueued adds an entry to the binary min-heap (ordered by mindist).
func pushQueued(h []queuedNode, it queuedNode) []queuedNode {
	h = append(h, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].mindist <= h[i].mindist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// popQueued removes and returns the entry with the smallest mindist.
func popQueued(h []queuedNode) ([]queuedNode, queuedNode) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l := 2*i + 1
		if l >= len(h) {
			break
		}
		small := l
		if r := l + 1; r < len(h) && h[r].mindist < h[l].mindist {
			small = r
		}
		if h[i].mindist <= h[small].mindist {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// branchAndBound is the shared best-first traversal: with k > 0 it behaves as
// a kNN search (radius ignored unless smaller); with k == 0 it collects every
// object within the radius. All working state lives in recycled scratch, so the
// warm path allocates only the returned result slice and the method is safe
// for concurrent callers — including callers concurrent with updates: the
// whole traversal reads the pinned epoch, which no update ever mutates.
func (oi *ObjectIndex) branchAndBound(ep *objEpoch, q model.Location, k int, radius float64) []index.ObjectResult {
	t := oi.tree
	// Step 1 (line 2 of Algorithm 5): distances from q to the access doors
	// of every ancestor of Leaf(q), computed with recycled dense scratch.
	qLeaf := t.Leaf(q.Partition)
	sc := t.distScratches.get()
	defer t.distScratches.put(sc)
	oc := oi.objScratches.get()
	defer oi.objScratches.put(oc)
	sd := &sc.src
	sd.reset(t.venue.NumDoors())
	t.distancesToNode(q, t.root, sd)
	// oc.nodes caches dist(q, a) for the access doors of the nodes the
	// traversal touches, aligned with each node's AccessDoors (Infinite when
	// unreachable). Ancestors of Leaf(q) come from the Algorithm 2 run.
	nd := &oc.nodes
	nd.reset(len(t.nodes))
	for _, n := range sd.nodeOrder {
		ads := t.nodes[n].AccessDoors
		ds := nd.put(n, len(ads))
		for i, a := range ads {
			ds[i], _ = sd.tab.get(a)
		}
	}
	return oi.bestFirst(ep, q, qLeaf, k, radius, oc)
}

// bestFirst runs the best-first traversal of Algorithm 5 against a
// pre-seeded scratch: oc.nodes must already hold dist(q, ·) for the access
// doors of every ancestor of qLeaf (the Algorithm 2 output). branchAndBound
// seeds it from a fresh climb; the batched path (objbatch.go) seeds it from
// a shared climb block carrying the very same values, which is what keeps
// batched answers bit-identical to sequential ones.
func (oi *ObjectIndex) bestFirst(ep *objEpoch, q model.Location, qLeaf NodeID, k int, radius float64, oc *objScratch) []index.ObjectResult {
	t := oi.tree
	nd := &oc.nodes
	results := resultCollector{k: k, radius: radius, results: oc.results[:0]}
	heap := oc.heap[:0]
	if ep.subtreeCount[t.root] > 0 {
		heap = pushQueued(heap, queuedNode{node: t.root, mindist: 0})
	}
	for len(heap) > 0 {
		var cur queuedNode
		heap, cur = popQueued(heap)
		if cur.mindist > results.bound() {
			break
		}
		node := &t.nodes[cur.node]
		if node.IsLeaf() {
			oi.scanLeaf(ep, q, qLeaf, cur.node, nd, oc, &results)
			continue
		}
		for _, c := range node.Children {
			if ep.subtreeCount[c] == 0 {
				continue
			}
			md := oi.childMinDist(q, qLeaf, cur.node, c, oc)
			if md <= results.bound() {
				heap = pushQueued(heap, queuedNode{node: c, mindist: md})
			}
		}
	}
	// Hand the grown backing arrays back to the scratch before recycling it.
	oc.heap = heap[:0]
	out := results.finish()
	oc.results = results.results[:0]
	return out
}

// childMinDist computes mindist(q, child) and caches the access-door
// distances of the child for use further down the tree (Lemmas 8 and 9).
func (oi *ObjectIndex) childMinDist(q model.Location, qLeaf NodeID, parent, child NodeID, oc *objScratch) float64 {
	t := oi.tree
	nd := &oc.nodes
	if t.IsAncestor(child, qLeaf) {
		return 0
	}
	if d, ok := nd.get(child); ok {
		return minOf(d)
	}
	mat := t.nodes[parent].Matrix
	var baseNode NodeID
	if t.IsAncestor(parent, qLeaf) {
		// Lemma 8: q lies in a sibling of child; combine the sibling's
		// access-door distances with the parent matrix.
		baseNode = t.ChildToward(parent, qLeaf)
	} else {
		// Lemma 9: q lies outside the parent; combine the parent's
		// access-door distances with the parent matrix.
		baseNode = parent
	}
	baseDists, _ := nd.get(baseNode)
	baseDoors := t.nodes[baseNode].AccessDoors
	childAD := t.nodes[child].AccessDoors
	dists := nd.put(child, len(childAD))
	// The base node's and the child's access-door positions in the parent
	// matrix are precomputed (own-matrix positions when the base is the
	// parent itself, parent-matrix positions when it is a sibling). The
	// reachable base doors are gathered into compact (distance, row) pairs
	// once — instead of being re-filtered for every child door — and each
	// child door's minimum is then a tight sweep whose only data-dependent
	// branch is the min update; an unreachable matrix cell yields a candidate
	// of Infinite, which cannot win the strict <.
	baseRows := t.pk.adPosInParent[baseNode]
	if baseNode == parent {
		baseRows = t.pk.adPosInOwn[parent]
	}
	childCols := t.pk.adPosInParent[child]
	cmBase, cmRows := oc.cmBase[:0], oc.cmRows[:0]
	if baseDists != nil {
		for j := range baseDoors {
			if baseDists[j] != Infinite && baseRows[j] >= 0 {
				cmBase = append(cmBase, baseDists[j])
				cmRows = append(cmRows, baseRows[j])
			}
		}
	}
	oc.cmBase, oc.cmRows = cmBase, cmRows
	stride := len(mat.cols)
	slab := mat.dist
	for i := range childAD {
		best := Infinite
		ci := childCols[i]
		if ci >= 0 {
			for k, b := range cmBase {
				if c := b + slab[int(cmRows[k])*stride+int(ci)]; c < best {
					best = c
				}
			}
		}
		// A missing column or an unreached base node (disconnected venue)
		// leaves the child unreachable.
		dists[i] = best
	}
	return minOf(dists)
}

func minOf(ds []float64) float64 {
	best := Infinite
	for _, v := range ds {
		if v < best {
			best = v
		}
	}
	return best
}

// scanLeaf evaluates every object in the leaf and updates the result set.
// The leaf state comes from the pinned epoch, so the scan is lock-free and
// can never observe a leaf mid-update.
func (oi *ObjectIndex) scanLeaf(ep *objEpoch, q model.Location, qLeaf, leaf NodeID, nd *nodeDistTable, oc *objScratch, results *resultCollector) {
	t := oi.tree
	lo := ep.leafData[leaf]
	if lo == nil {
		return
	}
	if leaf == qLeaf {
		// Objects co-located with the query in the same leaf: one sweep of
		// the leaf's door table gives the query's distance to every door of
		// the leaf, and each object's distance is then the least of those
		// plus the walk from a door of its partition to it — Distance's
		// arithmetic, so each equals Distance(q, object) bit for bit.
		v := t.venue
		lt := t.leafTableOf(leaf)
		ws, from := t.walksFrom(lt, q, oc.walk)
		u := resizeF64(oc.leafDoors, lt.n)
		lt.fillFrom(u, ws, from)
		oc.walk, oc.leafDoors = ws, u
		for i, id := range lo.ids {
			o := lo.locs[i]
			if o.Partition == q.Partition {
				results.add(id, v.SamePartitionDist(q, o))
				continue
			}
			dist := Infinite
			oDoors := v.Partition(o.Partition).Doors
			for j, b := range lt.doorsOf(lt.ordinal(o.Partition)) {
				if c := u[b] + v.DistToDoor(o, oDoors[j]); c < dist {
					dist = c
				}
			}
			results.add(id, dist)
		}
		return
	}
	accessDist, _ := nd.get(leaf)
	// Per-object best distances live in the scratch's dense stamped table;
	// one marking generation per scanned leaf.
	oc.bumpObjEpoch(lo.maxID)
	for ai := range t.nodes[leaf].AccessDoors {
		qd := accessDist[ai]
		if qd == Infinite {
			continue
		}
		for _, e := range lo.lists[ai] {
			total := qd + e.dist
			if !oc.objSeen.has(e.objectID) || total < oc.objDist[e.objectID] {
				oc.objSeen.mark(e.objectID)
				oc.objDist[e.objectID] = total
			}
		}
	}
	// Add in ascending object-ID order so that ties at the kNN boundary
	// resolve deterministically.
	for _, id := range lo.ids {
		if oc.objSeen.has(id) {
			results.add(id, oc.objDist[id])
		}
	}
}

// resultCollector accumulates query results for kNN (bounded size) or range
// (bounded radius) queries. The results slice is scratch-backed; finish
// copies the final set into a caller-owned slice.
type resultCollector struct {
	k       int
	radius  float64
	results []index.ObjectResult
}

// bound returns the pruning distance: the current k-th best distance for kNN
// queries, or the radius for range queries.
func (rc *resultCollector) bound() float64 {
	if rc.k <= 0 {
		return rc.radius
	}
	if len(rc.results) < rc.k {
		return rc.radius
	}
	worst := 0.0
	for _, r := range rc.results {
		if r.Dist > worst {
			worst = r.Dist
		}
	}
	return worst
}

// add offers an object at its distance from the query. A query offers each
// object once: bestFirst scans each leaf at most once, and every object
// lives in one leaf.
func (rc *resultCollector) add(objectID ObjectID, dist float64) {
	if dist > rc.radius {
		return
	}
	rc.results = append(rc.results, index.ObjectResult{ObjectID: objectID, Dist: dist})
	if rc.k > 0 && len(rc.results) > rc.k {
		// Drop the current worst; among equal distances, drop the largest
		// object ID so the retained set is deterministic.
		worstIdx := 0
		for i := 1; i < len(rc.results); i++ {
			w, r := rc.results[worstIdx], rc.results[i]
			if r.Dist > w.Dist || (r.Dist == w.Dist && r.ObjectID > w.ObjectID) {
				worstIdx = i
			}
		}
		rc.results = append(rc.results[:worstIdx], rc.results[worstIdx+1:]...)
	}
}

// finish sorts the accumulated results in place (ascending distance, ties by
// object ID) and copies them into a fresh slice — the only allocation of a
// warm query.
func (rc *resultCollector) finish() []index.ObjectResult {
	slices.SortFunc(rc.results, func(a, b index.ObjectResult) int {
		if a.Dist != b.Dist {
			return cmp.Compare(a.Dist, b.Dist)
		}
		return cmp.Compare(a.ObjectID, b.ObjectID)
	})
	if len(rc.results) == 0 {
		return nil
	}
	out := make([]index.ObjectResult, len(rc.results))
	copy(out, rc.results)
	return out
}
