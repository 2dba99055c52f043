package iptree

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"

	"viptree/internal/model"
)

// This file implements the snapshot export/import hooks consumed by
// viptree/internal/snapshot: the fully built state of an IP-Tree or VIP-Tree
// (tree topology, distance matrices, superior doors, materialised VIP
// entries, embedded object lists) is exported into plain gob-encodable
// structs and restored later without re-running construction. Only the
// expensive state is serialised; cheap derived lookup tables (leaf-of-
// partition, doors-of-leaf, access-door bookkeeping) are rebuilt on import
// with O(doors) scans, never with graph searches.
//
// Restoring a state produced by ExportState yields a tree that answers
// bit-identical Distance/Path/KNN/Range queries: every float64 survives the
// round trip exactly and the derived tables are reconstructed in the same
// deterministic order the builder uses.

// Snapshot payload kinds recorded in the container header. The suffix is the
// payload schema version: an incompatible change to TreeState or VIPState
// must introduce a new kind string.
const (
	// SnapshotKindIPTree identifies a serialised TreeState payload.
	SnapshotKindIPTree = "iptree/v1"
	// SnapshotKindVIPTree identifies a serialised VIPState payload.
	SnapshotKindVIPTree = "viptree/v1"
)

// MatrixState is the serialisable form of a node's distance matrix: the row
// and column door sets plus the dense distance and next-hop arrays in
// row-major order. The row/column lookup tables are rebuilt on restore.
type MatrixState struct {
	Rows []model.DoorID
	Cols []model.DoorID
	Dist []float64
	Next []model.DoorID
}

// NodeState is the serialisable form of one tree node. Node IDs are implied
// by position (nodes are stored densely).
type NodeState struct {
	Parent      NodeID
	Children    []NodeID
	Level       int
	Partitions  []model.PartitionID
	AccessDoors []model.DoorID
	Matrix      *MatrixState
}

// TreeState is the serialisable state of a fully built IP-Tree: the
// construction options, the node array with distance matrices, and the
// superior doors of every partition (the only per-partition state that
// required Dijkstra searches to compute).
type TreeState struct {
	MinDegree            int
	DisableSuperiorDoors bool
	NaiveMerge           bool
	Root                 NodeID
	Nodes                []NodeState
	SuperiorDoors        [][]model.DoorID
}

// VIPEntry is the serialisable form of one materialised (door, ancestor
// access door) entry: shortest distance plus the first door on that path.
type VIPEntry struct {
	Dist float64
	Next model.DoorID
}

// DoorVIPState holds the materialised ancestor entries of a single door:
// Entries[i] is aligned with the access doors of Nodes[i].
type DoorVIPState struct {
	Nodes   []NodeID
	Entries [][]VIPEntry
}

// VIPState is the serialisable state of a VIP-Tree: the underlying IP-Tree
// state plus the per-door materialised ancestor entries.
type VIPState struct {
	Tree  *TreeState
	Doors []DoorVIPState
}

// ObjectEntryState is one (object, distance-from-access-door) pair of an
// object index access list.
type ObjectEntryState struct {
	ObjectID int
	Dist     float64
}

// LeafObjectsState holds the object lists of one leaf: the object IDs in the
// leaf and, per access door of the leaf, the objects sorted by distance from
// that door.
type LeafObjectsState struct {
	Leaf        NodeID
	ObjectIDs   []int
	AccessLists [][]ObjectEntryState
}

// ObjectIndexState is the serialisable state of an ObjectIndex: the object
// locations plus the precomputed per-leaf access lists.
type ObjectIndexState struct {
	Name    string
	Objects []model.Location
	Leaves  []LeafObjectsState
	// Seq is the update-log sequence number the exported epoch covers: WAL
	// replay after restoring this state must start at Seq+1. Old snapshots
	// without the field decode as 0 (gob leaves missing fields zero), which
	// restores the pre-stamp behaviour of starting a fresh log.
	Seq uint64
}

// ExportState exports the built state of the IP-Tree. To keep exporting
// large trees cheap, the returned state aliases the tree's slabs (matrix
// cells, door sets, superior doors) where the on-disk form matches the
// in-memory one: treat it as read-only and encode it immediately. Next-hop
// arrays are the exception — in memory they are positional int32 ordinals
// into the matrix door sets (matrix.go), so export expands them back into
// the global door IDs the snapshot format has always recorded.
func (t *Tree) ExportState() *TreeState {
	sup := make([][]model.DoorID, t.numSuperiorDoorSets())
	for p := range sup {
		sup[p] = t.SuperiorDoors(model.PartitionID(p))
	}
	st := &TreeState{
		MinDegree:            t.opts.MinDegree,
		DisableSuperiorDoors: t.opts.DisableSuperiorDoors,
		NaiveMerge:           t.opts.NaiveMerge,
		Root:                 t.root,
		Nodes:                make([]NodeState, len(t.nodes)),
		SuperiorDoors:        sup,
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		ns := NodeState{
			Parent:      n.Parent,
			Children:    n.Children,
			Level:       n.Level,
			Partitions:  n.Partitions,
			AccessDoors: n.AccessDoors,
		}
		if n.Matrix != nil {
			next := make([]model.DoorID, len(n.Matrix.next))
			for j, v := range n.Matrix.next {
				next[j] = n.Matrix.decodeNext(v)
			}
			ns.Matrix = &MatrixState{
				Rows: n.Matrix.rows,
				Cols: n.Matrix.cols,
				Dist: n.Matrix.dist,
				Next: next,
			}
		}
		st.Nodes[i] = ns
	}
	return st
}

// ExportState exports the built state of the VIP-Tree, including the
// underlying IP-Tree. Like Tree.ExportState, the result partially aliases
// the live index and must be treated as read-only. The per-door entries are
// expanded from the VIP slabs into the per-door payload structs the
// snapshot format records.
func (vt *VIPTree) ExportState() *VIPState {
	pk := vt.vpk
	numDoors := len(pk.nodesOff) - 1
	st := &VIPState{
		Tree:  vt.Tree.ExportState(),
		Doors: make([]DoorVIPState, numDoors),
	}
	for d := 0; d < numDoors; d++ {
		nodes := pk.nodes[pk.nodesOff[d]:pk.nodesOff[d+1]]
		ds := DoorVIPState{
			Nodes:   make([]NodeID, len(nodes)),
			Entries: make([][]VIPEntry, len(nodes)),
		}
		off := int(pk.entryOff[d])
		for i, id := range nodes {
			ds.Nodes[i] = NodeID(id)
			ads := len(vt.nodes[id].AccessDoors)
			out := make([]VIPEntry, ads)
			for j := 0; j < ads; j++ {
				out[j] = VIPEntry{Dist: pk.dist[off+j], Next: model.DoorID(pk.next[off+j])}
			}
			off += ads
			ds.Entries[i] = out
		}
		st.Doors[d] = ds
	}
	return st
}

// ExportState exports the built state of the object index. Leaves are
// exported in ascending node-ID order (with ascending object IDs inside each
// leaf) so the encoding is deterministic. The export cuts a consistent
// epoch: it pins the currently published objEpoch with one atomic load and
// walks only immutable state — no shard locks, no coordination with
// concurrent updates, and never a torn view (the epoch is a prefix of the
// update log by construction). The object table of the payload is
// reconstructed from the epoch's leaves so it matches them exactly even
// while the writer is mid-batch; slots of deleted objects are zeroed.
func (oi *ObjectIndex) ExportState() *ObjectIndexState {
	ep := oi.currentEpoch()
	maxID := 0
	for _, lo := range ep.leafData {
		if lo != nil && len(lo.ids) > 0 {
			maxID = max(maxID, lo.ids[len(lo.ids)-1]+1)
		}
	}
	st := &ObjectIndexState{Name: oi.name, Objects: make([]model.Location, maxID), Seq: ep.seq}
	for leaf, lo := range ep.leafData {
		if lo == nil || len(lo.ids) == 0 {
			continue
		}
		ls := LeafObjectsState{
			Leaf:        NodeID(leaf),
			ObjectIDs:   append([]int(nil), lo.ids...),
			AccessLists: make([][]ObjectEntryState, len(lo.lists)),
		}
		for i, id := range lo.ids {
			st.Objects[id] = lo.locs[i]
		}
		for ai, es := range lo.lists {
			out := make([]ObjectEntryState, len(es))
			for j, e := range es {
				out[j] = ObjectEntryState{ObjectID: e.objectID, Dist: e.dist}
			}
			ls.AccessLists[ai] = out
		}
		st.Leaves = append(st.Leaves, ls)
	}
	return st
}

// RestoreTree reconstructs an IP-Tree over venue v from an exported state,
// without re-running construction. The state is validated against the venue
// (node, partition and door references must be in range and the partition
// cover complete); a mismatch indicates a corrupted or foreign snapshot.
func RestoreTree(v *model.Venue, st *TreeState) (*Tree, error) {
	if v == nil || v.NumPartitions() == 0 {
		return nil, fmt.Errorf("iptree: restore: venue is empty")
	}
	if st == nil || len(st.Nodes) == 0 {
		return nil, fmt.Errorf("iptree: restore: state has no nodes")
	}
	numNodes := len(st.Nodes)
	numDoors := v.NumDoors()
	numParts := v.NumPartitions()
	if int(st.Root) < 0 || int(st.Root) >= numNodes {
		return nil, fmt.Errorf("iptree: restore: root %d out of range [0,%d)", st.Root, numNodes)
	}
	if len(st.SuperiorDoors) != numParts {
		return nil, fmt.Errorf("iptree: restore: %d superior-door sets for %d partitions", len(st.SuperiorDoors), numParts)
	}
	t := &Tree{
		venue: v,
		opts: Options{
			MinDegree:            st.MinDegree,
			DisableSuperiorDoors: st.DisableSuperiorDoors,
			NaiveMerge:           st.NaiveMerge,
		},
		root:  st.Root,
		nodes: make([]Node, numNodes),
	}
	for i := range st.Nodes {
		ns := &st.Nodes[i]
		if ns.Parent != invalidNode && (int(ns.Parent) < 0 || int(ns.Parent) >= numNodes) {
			return nil, fmt.Errorf("iptree: restore: node %d parent %d out of range", i, ns.Parent)
		}
		if ns.Level < 1 {
			return nil, fmt.Errorf("iptree: restore: node %d has level %d", i, ns.Level)
		}
		for _, c := range ns.Children {
			if int(c) < 0 || int(c) >= numNodes {
				return nil, fmt.Errorf("iptree: restore: node %d child %d out of range", i, c)
			}
		}
		for _, p := range ns.Partitions {
			if int(p) < 0 || int(p) >= numParts {
				return nil, fmt.Errorf("iptree: restore: node %d partition %d out of range", i, p)
			}
		}
		if err := checkDoorIDs(ns.AccessDoors, numDoors, false, fmt.Sprintf("node %d access doors", i)); err != nil {
			return nil, err
		}
		mat, err := restoreMatrix(ns.Matrix, numDoors, i, len(ns.Children) > 0)
		if err != nil {
			return nil, err
		}
		t.nodes[i] = Node{
			ID:          NodeID(i),
			Parent:      ns.Parent,
			Children:    ns.Children,
			Level:       ns.Level,
			Partitions:  ns.Partitions,
			AccessDoors: ns.AccessDoors,
			Matrix:      mat,
		}
	}
	// The parent pointers must form a single hierarchy rooted at Root with
	// levels strictly increasing towards the root — the invariant every
	// climb loop (LCA, ancestor walks, object-index restore) relies on for
	// termination. Checking it here turns parent cycles and detached
	// subtrees in crafted or corrupted states into errors instead of hangs.
	if st.Nodes[st.Root].Parent != invalidNode {
		return nil, fmt.Errorf("iptree: restore: root %d has a parent", st.Root)
	}
	for i := range st.Nodes {
		if p := st.Nodes[i].Parent; p != invalidNode && st.Nodes[i].Level >= st.Nodes[p].Level {
			return nil, fmt.Errorf("iptree: restore: node %d level %d is not below parent %d level %d",
				i, st.Nodes[i].Level, p, st.Nodes[p].Level)
		}
	}
	for i := range st.Nodes {
		cur := NodeID(i)
		for st.Nodes[cur].Parent != invalidNode {
			cur = st.Nodes[cur].Parent // terminates: levels strictly increase
		}
		if cur != st.Root {
			return nil, fmt.Errorf("iptree: restore: node %d does not reach the root", i)
		}
	}
	for p, sup := range st.SuperiorDoors {
		if err := checkDoorIDs(sup, numDoors, false, fmt.Sprintf("partition %d superior doors", p)); err != nil {
			return nil, err
		}
	}
	if err := t.restoreDerived(); err != nil {
		return nil, err
	}
	leavesOfDoor, accessNodesOfDoor := t.indexDoors()
	t.pack(leavesOfDoor, accessNodesOfDoor, st.SuperiorDoors)
	return t, nil
}

// RestoreVIPTree reconstructs a VIP-Tree over venue v from an exported state.
func RestoreVIPTree(v *model.Venue, st *VIPState) (*VIPTree, error) {
	if st == nil {
		return nil, fmt.Errorf("iptree: restore: nil VIP state")
	}
	t, err := RestoreTree(v, st.Tree)
	if err != nil {
		return nil, err
	}
	if len(st.Doors) != v.NumDoors() {
		return nil, fmt.Errorf("iptree: restore: %d VIP door entries for %d doors", len(st.Doors), v.NumDoors())
	}
	// The first pass runs every check and counts, so the slabs are
	// allocated at their exact sizes before the second pass fills them.
	pk := &vipPacked{
		nodesOff: make([]int32, len(st.Doors)+1),
		entryOff: make([]int32, len(st.Doors)+1),
	}
	numNodes, numEntries := 0, 0
	for d := range st.Doors {
		ds := &st.Doors[d]
		pk.nodesOff[d] = int32(numNodes)
		pk.entryOff[d] = int32(numEntries)
		if len(ds.Entries) != len(ds.Nodes) {
			return nil, fmt.Errorf("iptree: restore: door %d has %d entry sets for %d nodes", d, len(ds.Entries), len(ds.Nodes))
		}
		for i, n := range ds.Nodes {
			if int(n) < 0 || int(n) >= len(t.nodes) {
				return nil, fmt.Errorf("iptree: restore: door %d VIP node %d out of range", d, n)
			}
			if len(ds.Entries[i]) != len(t.nodes[n].AccessDoors) {
				return nil, fmt.Errorf("iptree: restore: door %d node %d has %d VIP entries for %d access doors",
					d, n, len(ds.Entries[i]), len(t.nodes[n].AccessDoors))
			}
			for j, e := range ds.Entries[i] {
				if e.Next != NoDoor && (int(e.Next) < 0 || int(e.Next) >= v.NumDoors()) {
					return nil, fmt.Errorf("iptree: restore: door %d node %d VIP entry %d next door %d out of range",
						d, n, j, e.Next)
				}
			}
			numEntries += len(ds.Entries[i])
		}
		numNodes += len(ds.Nodes)
	}
	pk.nodesOff[len(st.Doors)] = int32(numNodes)
	pk.entryOff[len(st.Doors)] = int32(numEntries)
	pk.nodes = make([]int32, 0, numNodes)
	pk.dist = make([]float64, 0, numEntries)
	pk.next = make([]int32, 0, numEntries)
	for d := range st.Doors {
		ds := &st.Doors[d]
		for i, n := range ds.Nodes {
			pk.nodes = append(pk.nodes, int32(n))
			for _, e := range ds.Entries[i] {
				pk.dist = append(pk.dist, e.Dist)
				pk.next = append(pk.next, int32(e.Next))
			}
		}
	}
	return &VIPTree{Tree: t, vpk: pk}, nil
}

// RestoreObjectIndex reconstructs an object index over a restored tree from
// an exported state. Derived state — leaf assignments, subtree object
// counts, the free list of deleted slots — is rebuilt from the per-leaf
// object lists; object IDs and access lists are normalised to the
// deterministic ascending / (distance, ID) orders, so states written by
// older builds (which recorded insertion order) restore into the same
// layout a fresh build produces.
func RestoreObjectIndex(t *Tree, st *ObjectIndexState) (*ObjectIndex, error) {
	if t == nil || st == nil {
		return nil, fmt.Errorf("iptree: restore: nil tree or object state")
	}
	for i, o := range st.Objects {
		if int(o.Partition) < 0 || int(o.Partition) >= t.venue.NumPartitions() {
			return nil, fmt.Errorf("iptree: restore: object %d partition %d out of range", i, o.Partition)
		}
	}
	oi := newObjectIndex(t, st.Name, st.Seq)
	oi.objects = append(oi.objects, st.Objects...)
	oi.objLeaf = make([]NodeID, len(st.Objects))
	for i := range oi.objLeaf {
		oi.objLeaf[i] = invalidNode
	}
	for _, ls := range st.Leaves {
		if int(ls.Leaf) < 0 || int(ls.Leaf) >= len(t.nodes) || !t.nodes[ls.Leaf].IsLeaf() {
			return nil, fmt.Errorf("iptree: restore: object leaf %d is not a leaf node", ls.Leaf)
		}
		if oi.shadowLeaf[ls.Leaf] != nil {
			return nil, fmt.Errorf("iptree: restore: duplicate object leaf %d", ls.Leaf)
		}
		if len(ls.ObjectIDs) == 0 {
			continue
		}
		if len(ls.AccessLists) != len(t.nodes[ls.Leaf].AccessDoors) {
			return nil, fmt.Errorf("iptree: restore: leaf %d has %d access lists for %d access doors",
				ls.Leaf, len(ls.AccessLists), len(t.nodes[ls.Leaf].AccessDoors))
		}
		ids := make([]ObjectID, len(ls.ObjectIDs))
		copy(ids, ls.ObjectIDs)
		sort.Ints(ids)
		for i, id := range ids {
			if id < 0 || id >= len(st.Objects) {
				return nil, fmt.Errorf("iptree: restore: leaf %d references object %d out of range", ls.Leaf, id)
			}
			if i > 0 && ids[i-1] == id {
				return nil, fmt.Errorf("iptree: restore: leaf %d lists object %d twice", ls.Leaf, id)
			}
			if oi.objLeaf[id] != invalidNode {
				return nil, fmt.Errorf("iptree: restore: object %d appears in leaves %d and %d", id, oi.objLeaf[id], ls.Leaf)
			}
			if home := t.Leaf(st.Objects[id].Partition); home != ls.Leaf {
				return nil, fmt.Errorf("iptree: restore: object %d recorded in leaf %d but located in leaf %d", id, ls.Leaf, home)
			}
			oi.objLeaf[id] = ls.Leaf
		}
		lo := &leafObjects{
			ids:   ids,
			locs:  make([]model.Location, len(ids)),
			lists: make([][]objEntry, len(ls.AccessLists)),
			maxID: ids[len(ids)-1] + 1,
		}
		for i, id := range ids {
			lo.locs[i] = st.Objects[id]
		}
		for ai, es := range ls.AccessLists {
			if len(es) != len(ids) {
				return nil, fmt.Errorf("iptree: restore: leaf %d access list %d has %d entries for %d objects",
					ls.Leaf, ai, len(es), len(ids))
			}
			out := make([]objEntry, len(es))
			for j, e := range es {
				if e.ObjectID < 0 || e.ObjectID >= len(oi.objLeaf) {
					return nil, fmt.Errorf("iptree: restore: leaf %d access list references object %d out of range", ls.Leaf, e.ObjectID)
				}
				if oi.objLeaf[e.ObjectID] != ls.Leaf {
					return nil, fmt.Errorf("iptree: restore: leaf %d access list references object %d not in the leaf", ls.Leaf, e.ObjectID)
				}
				out[j] = objEntry{objectID: e.ObjectID, dist: e.Dist}
			}
			slices.SortFunc(out, cmpObjEntry)
			lo.lists[ai] = out
		}
		oi.shadowLeaf[ls.Leaf] = lo
		oi.addCountPath(ls.Leaf, int64(len(ids)))
		oi.alive += len(ids)
	}
	// Slots referenced by no leaf are free for reuse; pushing them in
	// descending order makes Insert hand out the smallest free ID first.
	for id := len(oi.objLeaf) - 1; id >= 0; id-- {
		if oi.objLeaf[id] == invalidNode {
			oi.free = append(oi.free, ObjectID(id))
		}
	}
	// Publish the restored state at the stamped sequence: the update log
	// continues from st.Seq (fresh exports carry 0, stamped snapshots the
	// seq they were cut at), with queries serving from this epoch
	// immediately and WAL replay resuming at st.Seq+1.
	oi.publishEpoch(st.Seq)
	return oi, nil
}

// restoreMatrix rebuilds a distance matrix from its serialised form: the
// door sets are validated and the global next-hop door IDs of the payload
// are re-encoded into the positional int32 form the serving layout uses
// (matrix.go). The encoding is lossless, so a re-exported matrix reproduces
// the payload byte for byte. square marks a non-leaf node's matrix.
func restoreMatrix(ms *MatrixState, numDoors, nodeID int, square bool) (*Matrix, error) {
	if ms == nil {
		return nil, fmt.Errorf("iptree: restore: node %d has no distance matrix", nodeID)
	}
	if err := checkDoorSet(ms.Rows, numDoors, fmt.Sprintf("node %d matrix rows", nodeID)); err != nil {
		return nil, err
	}
	// Non-leaf matrices are square with identical row and column door sets
	// — every exporter writes them that way, and the packed positional
	// tables (arena.go) index columns by row position. A crafted payload
	// with permuted columns would silently answer wrong distances, so
	// reject it here.
	if square && !slices.Equal(ms.Rows, ms.Cols) {
		return nil, fmt.Errorf("iptree: restore: node %d non-leaf matrix columns differ from rows", nodeID)
	}
	if err := checkDoorSet(ms.Cols, numDoors, fmt.Sprintf("node %d matrix cols", nodeID)); err != nil {
		return nil, err
	}
	if err := checkDoorIDs(ms.Next, numDoors, true, fmt.Sprintf("node %d matrix next hops", nodeID)); err != nil {
		return nil, err
	}
	cells := len(ms.Rows) * len(ms.Cols)
	if len(ms.Dist) != cells || len(ms.Next) != cells {
		return nil, fmt.Errorf("iptree: restore: node %d matrix has %d dist / %d next entries for %dx%d doors",
			nodeID, len(ms.Dist), len(ms.Next), len(ms.Rows), len(ms.Cols))
	}
	m := &Matrix{rows: ms.Rows, cols: ms.Cols, dist: ms.Dist, next: make([]int32, cells)}
	for i, d := range ms.Next {
		m.next[i] = m.encodeNext(d)
	}
	return m, nil
}

// checkDoorIDs validates that every door ID is a valid dense index. NoDoor
// passes only where allowNone is set — the next-hop arrays, where it marks
// an absent hop; anywhere else it would index a per-door table at -1.
func checkDoorIDs(doors []model.DoorID, numDoors int, allowNone bool, what string) error {
	for _, d := range doors {
		if d == NoDoor && allowNone {
			continue
		}
		if int(d) < 0 || int(d) >= numDoors {
			return fmt.Errorf("iptree: restore: %s: door %d out of range [0,%d)", what, d, numDoors)
		}
	}
	return nil
}

// checkDoorSet validates a matrix door set: valid door IDs in the strictly
// ascending order every builder writes and the matrix lookups
// binary-search.
func checkDoorSet(doors []model.DoorID, numDoors int, what string) error {
	if err := checkDoorIDs(doors, numDoors, false, what); err != nil {
		return err
	}
	for i := 1; i < len(doors); i++ {
		if doors[i] <= doors[i-1] {
			return fmt.Errorf("iptree: restore: %s: doors not strictly ascending at position %d", what, i)
		}
	}
	return nil
}

// restoreDerived rebuilds leaf-of-partition and doors-of-leaf from the node
// array, checking that the leaves partition the venue. These are O(doors)
// scans — no graph searches — and reproduce exactly the deterministic order
// construction uses; indexDoors derives the per-door tables from them.
func (t *Tree) restoreDerived() error {
	v := t.venue
	numParts := v.NumPartitions()
	t.leafOfPartition = make([]NodeID, numParts)
	for p := range t.leafOfPartition {
		t.leafOfPartition[p] = invalidNode
	}
	numLeaves := 0
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() && i >= numLeaves {
			numLeaves = i + 1
		}
	}
	t.doorsOfLeaf = make([][]model.DoorID, numLeaves)
	for i := range t.nodes {
		n := &t.nodes[i]
		if !n.IsLeaf() {
			continue
		}
		for _, pid := range n.Partitions {
			if t.leafOfPartition[pid] != invalidNode {
				return fmt.Errorf("iptree: restore: partition %d covered by leaves %d and %d", pid, t.leafOfPartition[pid], n.ID)
			}
			t.leafOfPartition[pid] = n.ID
		}
		t.doorsOfLeaf[n.ID] = doorsOfPartitions(v, n.Partitions)
	}
	for p, leaf := range t.leafOfPartition {
		if leaf == invalidNode {
			return fmt.Errorf("iptree: restore: partition %d is covered by no leaf", p)
		}
	}
	return nil
}

// SnapshotKind implements index.Snapshotter.
func (t *Tree) SnapshotKind() string { return SnapshotKindIPTree }

// EncodeSnapshot implements index.Snapshotter: it writes the gob-encoded
// TreeState payload (the container framing — header, checksum — is added by
// viptree/internal/snapshot).
func (t *Tree) EncodeSnapshot(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(t.ExportState()); err != nil {
		return fmt.Errorf("iptree: encoding tree snapshot: %w", err)
	}
	return nil
}

// SnapshotKind implements index.Snapshotter.
func (vt *VIPTree) SnapshotKind() string { return SnapshotKindVIPTree }

// EncodeSnapshot implements index.Snapshotter for the VIP-Tree.
func (vt *VIPTree) EncodeSnapshot(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(vt.ExportState()); err != nil {
		return fmt.Errorf("iptree: encoding VIP snapshot: %w", err)
	}
	return nil
}

// DecodeTreeSnapshot decodes a payload written by Tree.EncodeSnapshot and
// restores the IP-Tree over venue v.
func DecodeTreeSnapshot(r io.Reader, v *model.Venue) (*Tree, error) {
	var st TreeState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("iptree: decoding tree snapshot: %w", err)
	}
	return RestoreTree(v, &st)
}

// DecodeVIPSnapshot decodes a payload written by VIPTree.EncodeSnapshot and
// restores the VIP-Tree over venue v.
func DecodeVIPSnapshot(r io.Reader, v *model.Venue) (*VIPTree, error) {
	var st VIPState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("iptree: decoding VIP snapshot: %w", err)
	}
	return RestoreVIPTree(v, &st)
}
