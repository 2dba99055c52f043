package iptree

import (
	"math"
	"slices"

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
// Both door sets are strictly ascending: every builder sorts them and
// restore rejects any other order. Door lookups therefore binary-search the
// sets themselves. They are small (ρ doors for non-leaf nodes, the doors of
// one leaf otherwise), so a search is a handful of cache-resident
// comparisons — much cheaper than hashing on both the build and query hot
// paths.
//
// Construction fills each matrix in its own dist/next arrays; pack()
// (arena.go) then copies them into the tree's contiguous slabs before the
// tree is returned, so on every tree a caller can hold the slices here are
// views into those slabs and the struct is effectively an (offset, rows,
// cols) descriptor over them.
type Matrix struct {
	rows []model.DoorID
	cols []model.DoorID
	dist []float64
	next []int32
}

// newMatrix allocates a matrix with the given row and column door sets. All
// entries start as unreachable with no next hop.
func newMatrix(rows, cols []model.DoorID) *Matrix {
	m := &Matrix{
		rows: rows,
		cols: cols,
		dist: make([]float64, len(rows)*len(cols)),
		next: make([]int32, len(rows)*len(cols)),
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
	if i, ok := m.rowIndexOf(d); ok {
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
	i, ok := m.rowIndexOf(a)
	if !ok {
		return Infinite
	}
	j, ok := m.colIndexOf(b)
	if !ok {
		return Infinite
	}
	return m.distAt(i, j)
}

// rowIndexOf returns the position of door d among the rows.
func (m *Matrix) rowIndexOf(d model.DoorID) (int, bool) { return slices.BinarySearch(m.rows, d) }

// colIndexOf returns the position of door d among the columns.
func (m *Matrix) colIndexOf(d model.DoorID) (int, bool) { return slices.BinarySearch(m.cols, d) }

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
	if ra, okR := m.rowIndexOf(a); okR {
		if cb, okC := m.colIndexOf(b); okC {
			return ra, cb, true
		}
	}
	if rb, okR := m.rowIndexOf(b); okR {
		if ca, okC := m.colIndexOf(a); okC {
			return rb, ca, true
		}
	}
	return 0, 0, false
}
