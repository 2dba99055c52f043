package iptree

import (
	"slices"
	"sync/atomic"

	"viptree/internal/model"
)

// This file implements the arena layout, the only layout a Tree or VIPTree
// has once a constructor returns. Construction and snapshot restore first
// give every node's distance matrix its own allocation (a non-leaf node's
// door set is only known inside buildNodeMatrix); pack() then copies the
// matrices into a handful of per-tree contiguous slabs — one []float64 for
// all matrix distances, one []int32 for all positional next-hops, one
// []model.DoorID for every sorted door set — and repoints the per-node
// structures at views into them. Queries then walk a few large arrays
// instead of hundreds of scattered allocations, which is where the warm
// Distance/Path/kNN paths spend their memory traffic. The VIP entries skip
// the intermediate form: newVIPPacked sizes their slabs from the topology
// and each materialisation worker writes its door's block in place.
//
// pack() additionally precomputes the positional lookup tables the climb
// loops of Algorithms 2/3/5 need, so the warm query paths perform no
// door-set binary searches at all:
//
//   - adPosInOwn[n][i]: position of node n's i-th access door in n's own
//     matrix (column position for leaves, row==column position for the
//     square non-leaf matrices);
//   - adPosInParent[n][i]: position of node n's i-th access door among the
//     rows (== columns) of the parent's matrix;
//   - supRowInLeaf[p][i]: row position of partition p's i-th superior door
//     in the matrix of the leaf containing p.
//
// Every table is derived from the same door sets the binary searches would
// consult, and the snapshot payload expands the arenas back into the
// per-node form. The D2D ground-truth tests pin the query answers and the
// golden digests (golden_test.go) pin the payload bytes.

// packed holds the frozen arenas and positional tables of a tree.
type packed struct {
	// dist is the distance slab: every matrix's cells, row-major, in node
	// order. Each Matrix.dist is a view into it.
	dist []float64
	// next is the next-hop slab, parallel to dist, in the positional int32
	// encoding of Matrix (row ordinal, -1 for NoDoor, -2-id escape).
	next []int32
	// doors is the door-set slab: access doors, matrix row/column sets, leaf
	// door sets and superior doors, deduplicated where the builder aliases
	// them (a leaf matrix's columns are the node's access doors, a non-leaf
	// matrix's rows are its columns).
	doors []model.DoorID
	// pos is the positional-table slab backing the three views below.
	pos []int32

	adPosInOwn    [][]int32
	adPosInParent [][]int32

	// supDoorOff and supPosOff delimit partition p's superior doors within
	// the doors slab and their leaf-matrix row positions within the pos
	// slab: two (P+1)-length offset arrays instead of P slice headers each
	// (partitions vastly outnumber nodes, so per-partition headers would
	// dominate the whole report on venues with many small rooms).
	supDoorOff []int32
	supPosOff  []int32

	// leavesOfDoor and accessNodesOfDoor are the per-door node lists in
	// compressed (CSR) form: two int32 slabs replace a slice header and an
	// 8-byte element array per door. Path decomposition consults both on
	// every edge, so besides the memory halving they keep the candidate
	// walk on two cache-friendly slabs.
	leavesOfDoor      doorCSR
	accessNodesOfDoor doorCSR
}

// doorCSR is a compressed per-door node-list table: door d's nodes are
// data[off[d]:off[d+1]], stored as int32 node IDs.
type doorCSR struct {
	off  []int32
	data []int32
}

// of returns door d's node list.
func (c *doorCSR) of(d model.DoorID) []int32 { return c.data[c.off[d]:c.off[d+1]] }

// empty reports whether door d has no nodes.
func (c *doorCSR) empty(d model.DoorID) bool { return c.off[d] == c.off[d+1] }

// bytes is the exact slab size.
func (c *doorCSR) bytes() int64 { return int64(len(c.off)+len(c.data)) * 4 }

// newDoorCSR builds a per-door node table over numDoors doors: node n, for
// n in ascending order, joins the list of every door in doorsOf(n), so each
// door's list comes out sorted.
func newDoorCSR(numDoors, numNodes int, doorsOf func(n int) []model.DoorID) doorCSR {
	c := doorCSR{off: make([]int32, numDoors+1)}
	for n := 0; n < numNodes; n++ {
		for _, d := range doorsOf(n) {
			c.off[d+1]++
		}
	}
	for d := 0; d < numDoors; d++ {
		c.off[d+1] += c.off[d]
	}
	c.data = make([]int32, c.off[numDoors])
	fill := slices.Clone(c.off[:numDoors])
	for n := 0; n < numNodes; n++ {
		for _, d := range doorsOf(n) {
			c.data[fill[d]] = int32(n)
			fill[d]++
		}
	}
	return c
}

// packSpan records where a door set landed in the doors slab; alias spans
// (negative off) share another span instead of occupying slab space.
type packSpan struct {
	off int32
	n   int32
}

const (
	spanAliasAccess = -2 // span aliases the node's packed access doors
	spanAliasRows   = -3 // span aliases the node's packed matrix rows
)

// pack freezes the tree into the arena layout. Construction and snapshot
// restore call it once, handing over the tables only pack() keeps: the
// per-door node lists and the superior doors of every partition. The tree
// must not be mutated afterwards (object updates live outside the tree and
// are unaffected). It also sizes the leaf-table slots, all empty: a leaf's
// door table is built by the first query that needs it (leaftable.go).
func (t *Tree) pack(leavesOfDoor, accessNodesOfDoor doorCSR, superiorDoors [][]model.DoorID) {
	numNodes := len(t.nodes)

	// Pass 1: append every door set to the slab, recording spans. Appending
	// first and slicing views after the slab is final avoids any aliasing
	// hazard from slab growth.
	var doors []model.DoorID
	push := func(ds []model.DoorID) packSpan {
		off := len(doors)
		doors = append(doors, ds...)
		return packSpan{off: int32(off), n: int32(len(ds))}
	}
	adSpan := make([]packSpan, numNodes)
	rowSpan := make([]packSpan, numNodes)
	colSpan := make([]packSpan, numNodes)
	leafSpan := make([]packSpan, numNodes)
	cells := 0
	for i := range t.nodes {
		n := &t.nodes[i]
		adSpan[i] = push(n.AccessDoors)
		m := n.Matrix
		if m == nil {
			continue
		}
		cells += len(m.dist)
		rowSpan[i] = push(m.rows)
		switch {
		case slices.Equal(m.cols, n.AccessDoors):
			colSpan[i] = packSpan{off: spanAliasAccess, n: int32(len(m.cols))}
		case slices.Equal(m.cols, m.rows):
			colSpan[i] = packSpan{off: spanAliasRows, n: int32(len(m.cols))}
		default:
			colSpan[i] = push(m.cols)
		}
		if n.IsLeaf() {
			if slices.Equal(t.doorsOfLeaf[i], m.rows) {
				leafSpan[i] = packSpan{off: spanAliasRows, n: int32(len(m.rows))}
			} else {
				leafSpan[i] = push(t.doorsOfLeaf[i])
			}
		}
	}
	// Superior doors are pushed consecutively per partition, so a single
	// offset array delimits them within the doors slab.
	supDoorOff := make([]int32, len(superiorDoors)+1)
	for p := range superiorDoors {
		supDoorOff[p] = int32(len(doors))
		doors = append(doors, superiorDoors[p]...)
	}
	supDoorOff[len(superiorDoors)] = int32(len(doors))

	pk := &packed{
		dist:              make([]float64, 0, cells),
		next:              make([]int32, 0, cells),
		doors:             doors,
		supDoorOff:        supDoorOff,
		leavesOfDoor:      leavesOfDoor,
		accessNodesOfDoor: accessNodesOfDoor,
	}
	view := func(s packSpan, access, rows []model.DoorID) []model.DoorID {
		switch s.off {
		case spanAliasAccess:
			return access
		case spanAliasRows:
			return rows
		default:
			return pk.doors[s.off : int(s.off)+int(s.n) : int(s.off)+int(s.n)]
		}
	}

	// Pass 2: repoint the per-node structures at slab views and copy the
	// matrix cells into the dist/next slabs.
	for i := range t.nodes {
		n := &t.nodes[i]
		n.AccessDoors = view(adSpan[i], nil, nil)
		m := n.Matrix
		if m == nil {
			continue
		}
		rows := view(rowSpan[i], nil, nil)
		m.rows = rows
		m.cols = view(colSpan[i], n.AccessDoors, rows)
		off := len(pk.dist)
		pk.dist = append(pk.dist, m.dist...)
		pk.next = append(pk.next, m.next...)
		m.dist = pk.dist[off:len(pk.dist):len(pk.dist)]
		m.next = pk.next[off:len(pk.next):len(pk.next)]
		if n.IsLeaf() {
			t.doorsOfLeaf[i] = view(leafSpan[i], nil, rows)
		}
	}
	// The views handed out above stay valid only if the slabs never grew
	// past their pre-counted capacities; a drift between the counting and
	// filling passes would silently orphan every repointed view.
	if len(pk.dist) != cells || len(pk.next) != cells {
		panic("iptree: pack: matrix slab count drifted from pass 1")
	}

	t.pk = pk
	t.packPositions(superiorDoors)
	t.leafTables = make([]atomic.Pointer[leafTable], len(t.doorsOfLeaf))
}

// packPositions fills the positional lookup tables, one contiguous int32
// slab with per-node/per-partition views.
func (t *Tree) packPositions(superiorDoors [][]model.DoorID) {
	pk := t.pk
	total := 0
	for i := range t.nodes {
		total += 2 * len(t.nodes[i].AccessDoors)
	}
	for p := range superiorDoors {
		total += len(superiorDoors[p])
	}
	pk.pos = make([]int32, 0, total)
	pk.adPosInOwn = make([][]int32, len(t.nodes))
	pk.adPosInParent = make([][]int32, len(t.nodes))
	pk.supPosOff = make([]int32, len(superiorDoors)+1)

	fill := func(doors []model.DoorID, find func(model.DoorID) (int, bool)) []int32 {
		off := len(pk.pos)
		for _, d := range doors {
			p := int32(-1)
			if find != nil {
				if i, ok := find(d); ok {
					p = int32(i)
				}
			}
			pk.pos = append(pk.pos, p)
		}
		return pk.pos[off:len(pk.pos):len(pk.pos)]
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		var own func(model.DoorID) (int, bool)
		if n.Matrix != nil {
			if n.IsLeaf() {
				own = n.Matrix.colIndexOf
			} else {
				own = n.Matrix.rowIndexOf
			}
		}
		pk.adPosInOwn[i] = fill(n.AccessDoors, own)
		var inParent func(model.DoorID) (int, bool)
		if n.Parent != invalidNode && t.nodes[n.Parent].Matrix != nil {
			inParent = t.nodes[n.Parent].Matrix.rowIndexOf
		}
		pk.adPosInParent[i] = fill(n.AccessDoors, inParent)
	}
	for p := range superiorDoors {
		leaf := t.leafOfPartition[p]
		var find func(model.DoorID) (int, bool)
		if leaf != invalidNode && t.nodes[leaf].Matrix != nil {
			find = t.nodes[leaf].Matrix.rowIndexOf
		}
		pk.supPosOff[p] = int32(len(pk.pos))
		fill(superiorDoors[p], find)
	}
	pk.supPosOff[len(superiorDoors)] = int32(len(pk.pos))
	// Same guard as pack(): growth past the pre-count would orphan the
	// position views taken during the fill.
	if len(pk.pos) != total {
		panic("iptree: pack: position slab count drifted from pre-count")
	}
}

// superiorDoorsOf returns partition p's superior doors as a view of the
// doors slab.
func (pk *packed) superiorDoorsOf(p model.PartitionID) []model.DoorID {
	return pk.doors[pk.supDoorOff[p]:pk.supDoorOff[p+1]]
}

// supRowsOf returns the leaf-matrix row positions of partition p's superior
// doors as a view of the pos slab (parallel to superiorDoorsOf).
func (pk *packed) supRowsOf(p model.PartitionID) []int32 {
	return pk.pos[pk.supPosOff[p]:pk.supPosOff[p+1]]
}

// vipPacked holds the VIP-Tree's per-door materialised ancestor tables: the
// node lists of all doors concatenated into one int32 slab, and the
// (distance, first-door) entries split into a float64 slab and an int32 slab
// (the distance slab is the one the Distance hot path scans, so splitting
// doubles its cache density). Entries of door d start at entryOff[d] and
// follow the node list order, one block of len(AccessDoors(node)) entries
// per node.
type vipPacked struct {
	nodes    []int32   // concatenated ancestor node lists, door order
	nodesOff []int32   // len numDoors+1: door d's nodes are nodes[nodesOff[d]:nodesOff[d+1]]
	dist     []float64 // concatenated entry distances
	next     []int32   // parallel first-door IDs (-1 = NoDoor)
	entryOff []int32   // len numDoors+1: door d's entries start at entryOff[d]
}

// newVIPPacked sizes the VIP slabs from the tree topology alone and fills
// in the node lists (see doorAncestors); each door's entry block holds one
// slot per access door of each of its nodes. The entry slabs are left for
// materialiseDoor, whose workers each fill their own door's block.
func (t *Tree) newVIPPacked() *vipPacked {
	numDoors := t.venue.NumDoors()
	pk := &vipPacked{
		nodesOff: make([]int32, numDoors+1),
		entryOff: make([]int32, numDoors+1),
	}
	// The first pass counts, so the node slab is allocated at its exact
	// size before the second pass fills it.
	var anc []NodeID
	numNodes, numEntries := 0, 0
	for d := range numDoors {
		anc = t.doorAncestors(model.DoorID(d), anc)
		pk.nodesOff[d] = int32(numNodes)
		pk.entryOff[d] = int32(numEntries)
		numNodes += len(anc)
		for _, n := range anc {
			numEntries += len(t.nodes[n].AccessDoors)
		}
	}
	pk.nodesOff[numDoors] = int32(numNodes)
	pk.entryOff[numDoors] = int32(numEntries)
	pk.nodes = make([]int32, 0, numNodes)
	for d := range numDoors {
		anc = t.doorAncestors(model.DoorID(d), anc)
		for _, n := range anc {
			pk.nodes = append(pk.nodes, int32(n))
		}
	}
	pk.dist = make([]float64, numEntries)
	pk.next = make([]int32, numEntries)
	return pk
}

// doorAncestors returns, reusing buf's storage, the node list of door d's
// VIP entries: every ancestor of every leaf holding d, the leaves included,
// each once, in (level, ID) order. A climb stops at the first node already
// listed, whose ancestors are then listed too.
func (t *Tree) doorAncestors(d model.DoorID, buf []NodeID) []NodeID {
	buf = buf[:0]
	for _, leaf := range t.pk.leavesOfDoor.of(d) {
		for cur := NodeID(leaf); cur != invalidNode && !slices.Contains(buf, cur); cur = t.nodes[cur].Parent {
			buf = append(buf, cur)
		}
	}
	sortNodesByLevel(t, buf)
	return buf
}

// sortNodesByLevel orders node IDs by increasing level (stable by ID).
func sortNodesByLevel(t *Tree, nodes []NodeID) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0; j-- {
			a, b := nodes[j-1], nodes[j]
			if t.nodes[a].Level > t.nodes[b].Level ||
				(t.nodes[a].Level == t.nodes[b].Level && a > b) {
				nodes[j-1], nodes[j] = nodes[j], nodes[j-1]
			} else {
				break
			}
		}
	}
}

// arenaBytes returns the exact size of the packed VIP slabs.
func (pk *vipPacked) arenaBytes() int64 {
	return int64(len(pk.nodes))*4 + int64(len(pk.nodesOff))*4 +
		int64(len(pk.dist))*8 + int64(len(pk.next))*4 + int64(len(pk.entryOff))*4
}

// arenaBytes returns the exact size of the packed slabs plus the headers of
// the per-node views they replace.
func (pk *packed) arenaBytes() int64 {
	total := int64(len(pk.dist))*8 + int64(len(pk.next))*4 +
		int64(len(pk.doors))*sizeofDoorID + int64(len(pk.pos))*4
	total += pk.leavesOfDoor.bytes() + pk.accessNodesOfDoor.bytes()
	total += int64(len(pk.supDoorOff)+len(pk.supPosOff)) * 4
	views := int64(len(pk.adPosInOwn) + len(pk.adPosInParent))
	total += views * sizeofSliceHeader
	return total
}
