package iptree

import (
	"math"
	"sort"

	"viptree/internal/model"
)

// NoDoor marks the absence of a next-hop door in a distance matrix entry
// (the NULL of Section 2.1.1): the corresponding edge is final, i.e. the
// shortest path between the two doors contains no other door.
const NoDoor model.DoorID = -1

// Infinite is the distance stored for unreachable door pairs.
const Infinite = math.MaxFloat64

// noNextOrd is the encoded form of NoDoor in the next-hop array.
const noNextOrd int32 = -1

// doorIndex maps door IDs to their position in an ordered door slice without
// a hash map: lookups binary-search a sorted view of the doors. The door sets
// of a matrix are small (ρ doors for non-leaf nodes, the doors of one leaf
// otherwise), so the search is a handful of cache-resident comparisons —
// much cheaper than hashing on both the build and query hot paths.
type doorIndex struct {
	// sorted is the door set in ascending order. The builder produces sorted
	// door sets, so this usually aliases the original slice.
	sorted []model.DoorID
	// pos maps positions in sorted back to positions in the original slice;
	// nil when the original slice was already sorted (the identity mapping).
	pos []int32
}

// newDoorIndex builds the lookup structure over doors. The slice is aliased,
// not copied, when it is already in ascending order.
func newDoorIndex(doors []model.DoorID) doorIndex {
	for i := 1; i < len(doors); i++ {
		if doors[i] <= doors[i-1] {
			return permutedDoorIndex(doors)
		}
	}
	return doorIndex{sorted: doors}
}

// permutedDoorIndex handles door sets that are not ascending (possible only
// in hand-crafted snapshot payloads): it sorts a copy and remembers the
// permutation back to the original positions.
func permutedDoorIndex(doors []model.DoorID) doorIndex {
	idx := doorIndex{
		sorted: append([]model.DoorID(nil), doors...),
		pos:    make([]int32, len(doors)),
	}
	for i := range idx.pos {
		idx.pos[i] = int32(i)
	}
	sort.Sort(&idx)
	return idx
}

// sort.Interface over (sorted, pos) in lockstep.
func (ix *doorIndex) Len() int           { return len(ix.sorted) }
func (ix *doorIndex) Less(i, j int) bool { return ix.sorted[i] < ix.sorted[j] }
func (ix *doorIndex) Swap(i, j int) {
	ix.sorted[i], ix.sorted[j] = ix.sorted[j], ix.sorted[i]
	ix.pos[i], ix.pos[j] = ix.pos[j], ix.pos[i]
}

// find returns the position of door d in the original slice.
func (ix *doorIndex) find(d model.DoorID) (int, bool) {
	lo, hi := 0, len(ix.sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.sorted[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(ix.sorted) || ix.sorted[lo] != d {
		return 0, false
	}
	if ix.pos != nil {
		return int(ix.pos[lo]), true
	}
	return lo, true
}

// Matrix is a distance matrix of an IP-Tree node. For leaf nodes the rows
// are every door of the node and the columns its access doors; for non-leaf
// nodes rows and columns are both the union of the children's access doors.
// Each entry stores the shortest distance and the next-hop door on that
// shortest path, oriented from the row door towards the column door.
//
// Next hops are stored positionally, not as global door IDs: an entry holds
// the ordinal of the next-hop door within the matrix's own row door set (4
// bytes instead of 8), and the global ID is recovered by indexing the door
// set — no search. The rare next hop outside the matrix's door set (a leaf
// path that leaves the leaf, a level-graph fallback hop) is escape-encoded
// as -2-id; NoDoor is -1.
//
// Construction fills each matrix in its own dist/next arrays; pack()
// (arena.go) then copies them into the tree's contiguous slabs before the
// tree is returned, so on every tree a caller can hold the slices here are
// views into those slabs and the struct is effectively an (offset, rows,
// cols) descriptor over them.
type Matrix struct {
	rows   []model.DoorID
	cols   []model.DoorID
	rowIdx doorIndex
	colIdx doorIndex
	dist   []float64
	next   []int32
}

// newMatrix allocates a matrix with the given row and column door sets. All
// entries start as unreachable with no next hop.
func newMatrix(rows, cols []model.DoorID) *Matrix {
	m := &Matrix{
		rows:   rows,
		cols:   cols,
		rowIdx: newDoorIndex(rows),
		colIdx: newDoorIndex(cols),
		dist:   make([]float64, len(rows)*len(cols)),
		next:   make([]int32, len(rows)*len(cols)),
	}
	for i := range m.dist {
		m.dist[i] = Infinite
		m.next[i] = noNextOrd
	}
	return m
}

// encodeNext turns a global next-hop door ID into its stored positional
// form: the door's ordinal among the matrix rows when it is one, or the
// escape encoding -2-id when it is not (NoDoor stays -1).
func (m *Matrix) encodeNext(d model.DoorID) int32 {
	if d == NoDoor {
		return noNextOrd
	}
	if i, ok := m.rowIdx.find(d); ok {
		return int32(i)
	}
	return int32(-2 - d)
}

// decodeNext recovers the global door ID from a stored next-hop entry by
// direct indexing into the row door set.
func (m *Matrix) decodeNext(v int32) model.DoorID {
	if v >= 0 {
		return m.rows[v]
	}
	if v == noNextOrd {
		return NoDoor
	}
	return model.DoorID(-2 - v)
}

// Rows returns the row door IDs.
func (m *Matrix) Rows() []model.DoorID { return m.rows }

// setAt records the entry for the row/col positions directly (both aligned
// with Rows()/Cols()); build loops iterate positionally, so the matrix has
// no door-ID-keyed mutator. The next-hop door is given as a global ID and
// encoded positionally.
func (m *Matrix) setAt(row, col int, dist float64, next model.DoorID) {
	idx := row*len(m.cols) + col
	m.dist[idx] = dist
	m.next[idx] = m.encodeNext(next)
}

// Dist returns the stored distance from row door a to column door b, or
// Infinite if the entry does not exist.
func (m *Matrix) Dist(a, b model.DoorID) float64 {
	i, ok := m.rowIdx.find(a)
	if !ok {
		return Infinite
	}
	j, ok := m.colIdx.find(b)
	if !ok {
		return Infinite
	}
	return m.distAt(i, j)
}

// rowIndexOf returns the position of door d among the rows.
func (m *Matrix) rowIndexOf(d model.DoorID) (int, bool) { return m.rowIdx.find(d) }

// colIndexOf returns the position of door d among the columns.
func (m *Matrix) colIndexOf(d model.DoorID) (int, bool) { return m.colIdx.find(d) }

// distAt reads the distance at a (row, col) position pair obtained from
// rowIndexOf/colIndexOf, skipping the door lookups on loops that resolve
// positions once and then sweep many entries.
func (m *Matrix) distAt(row, col int) float64 { return m.dist[row*len(m.cols)+col] }

// nextAt reads the next-hop door at a (row, col) position pair.
func (m *Matrix) nextAt(row, col int) model.DoorID {
	return m.decodeNext(m.next[row*len(m.cols)+col])
}

// locate returns the position of the entry relating doors a and b, trying
// the (a, b) orientation first and falling back to (b, a) — the orientation
// rule of decompositionNode (leaf matrices are rectangular, so an entry may
// exist only with the doors swapped).
func (m *Matrix) locate(a, b model.DoorID) (row, col int, ok bool) {
	if ra, okR := m.rowIdx.find(a); okR {
		if cb, okC := m.colIdx.find(b); okC {
			return ra, cb, true
		}
	}
	if rb, okR := m.rowIdx.find(b); okR {
		if ca, okC := m.colIdx.find(a); okC {
			return rb, ca, true
		}
	}
	return 0, 0, false
}
