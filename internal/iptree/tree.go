// Package iptree implements the paper's primary contribution: the Indoor
// Partitioning Tree (IP-Tree) and the Vivid IP-Tree (VIP-Tree), together
// with the query algorithms of Section 3 — shortest distance (Algorithms 2
// and 3), shortest path (Algorithm 4), k nearest neighbours (Algorithm 5)
// and range queries.
//
// An IP-Tree groups adjacent indoor partitions into leaf nodes (keeping each
// hallway in its own leaf), then merges nodes bottom-up while minimising the
// number of access doors per node. Every node stores a small distance matrix
// over its access doors, so shortest distances between far-apart locations
// are assembled from O(height) matrix lookups instead of a graph expansion.
// A VIP-Tree additionally materialises, for every door, the distances to the
// access doors of all of its ancestors, reducing the distance query cost to
// O(ρ²) where ρ is the (small) average number of access doors per node.
//
// Construction is the expensive half of the paper's trade-off: it runs
// Dijkstra searches for every leaf matrix and materialises per-door ancestor
// entries. Both trees therefore implement the index.Snapshotter capability
// (snapshot.go): the fully built state — topology, distance matrices,
// superior doors, VIP entries — exports into gob-encodable structs and
// restores without re-running construction, answering bit-identical queries.
// The framed on-disk container lives in viptree/internal/snapshot.
package iptree

import (
	"fmt"
	"sync/atomic"
	"time"

	"viptree/internal/index"
	"viptree/internal/model"
)

// Compile-time conformance: both trees and their object index implement the
// full capability interfaces of viptree/internal/index.
var (
	_ index.Index         = (*Tree)(nil)
	_ index.Index         = (*VIPTree)(nil)
	_ index.ObjectIndexer = (*Tree)(nil)
	_ index.ObjectIndexer = (*VIPTree)(nil)
	_ index.ObjectQuerier = (*ObjectIndex)(nil)
)

// NodeID identifies a node of the tree. Nodes are stored densely; leaves are
// created first, so leaf IDs are 0..M-1.
type NodeID int

// invalidNode marks the absence of a node (e.g. the root's parent).
const invalidNode NodeID = -1

// Node is a node of the IP-Tree. Leaf nodes cover a set of indoor
// partitions; non-leaf nodes cover the union of their children.
type Node struct {
	ID       NodeID
	Parent   NodeID
	Children []NodeID
	// Level is 1 for leaves and increases towards the root.
	Level int
	// Partitions is the set of indoor partitions covered by a leaf node;
	// empty for non-leaf nodes.
	Partitions []model.PartitionID
	// AccessDoors is AD(N): the doors connecting the inside of the node to
	// the outside (Definition 1).
	AccessDoors []model.DoorID
	// Matrix is the node's distance matrix. For a leaf node the rows are
	// all doors of the node and the columns its access doors; for a
	// non-leaf node it is a square matrix over the access doors of its
	// children (Section 2.1.1).
	Matrix *Matrix
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Options configures tree construction.
type Options struct {
	// MinDegree is the minimum number of children of each non-root node
	// (the parameter t of Algorithm 1). The paper finds t=2 performs best;
	// zero selects that default.
	MinDegree int
	// DisableSuperiorDoors is an ablation switch: when set, Eq. (1) uses
	// every door of the source partition instead of only its superior doors
	// (Definition 2), which the paper's design avoids.
	DisableSuperiorDoors bool
	// NaiveMerge is an ablation switch: when set, Algorithm 1 merges each
	// node with an arbitrary neighbour instead of the one maximising the
	// number of shared access doors.
	NaiveMerge bool
	// Parallelism bounds the number of worker goroutines used by the
	// construction phases that fan out per node or per door (leaf matrices,
	// non-leaf matrices, VIP materialisation). Zero selects GOMAXPROCS.
	// The built tree is bit-identical at every parallelism, because workers
	// only write state owned by their item (a node's matrix, a door's VIP
	// entries); Parallelism is therefore not recorded in snapshots.
	Parallelism int
}

func (o Options) minDegree() int {
	if o.MinDegree < 2 {
		return 2
	}
	return o.MinDegree
}

// Tree is an IP-Tree over a venue.
type Tree struct {
	venue *model.Venue
	opts  Options

	nodes []Node
	root  NodeID

	// leafOfPartition maps each partition to the leaf that contains it.
	leafOfPartition []NodeID
	// doorsOfLeaf caches the set of doors of each leaf node, indexed by
	// NodeID (empty for non-leaf nodes).
	doorsOfLeaf [][]model.DoorID
	// isLeafAccessDoor marks doors that are access doors of at least one
	// leaf node; Algorithm 4 relies on this set when decomposing edges.
	isLeafAccessDoor []bool

	// pk is the arena layout (arena.go): contiguous slabs holding every
	// matrix and door set, the per-door node lists and the superior doors
	// (Definition 2) of every partition, plus the positional lookup tables
	// the query hot paths index instead of binary-searching. pack() builds
	// it at the end of construction and restore.
	pk *packed

	// distScratches recycles per-query scratch (dense door tables, the
	// same-leaf walks and the in-leaf search of same-leaf paths), keeping
	// the warm Distance/Path/KNN paths allocation-free and safe for
	// concurrent callers.
	distScratches freeList[distScratch]

	// leafTables holds each leaf's door table (leaftable.go), indexed by
	// leaf NodeID: nil until the first query that needs the leaf builds
	// and publishes it. pack() sizes the slice; no table is built before a
	// query asks for one.
	leafTables []atomic.Pointer[leafTable]

	// climb is the tree-lifetime cache of Algorithm-2 climb blocks consulted
	// by the batched kNN/range path (climbcache.go). Climb blocks depend
	// only on the static tree topology, so the cache lives on the tree and
	// is shared by every object index embedded into it.
	climb climbCache

	// timings records the wall-clock cost of each construction phase; zero
	// for trees restored from a snapshot.
	timings BuildTimings
}

// BuildTimings is the wall-clock duration of every construction phase, the
// breakdown behind the paper's one-off construction cost. Snapshot-restored
// trees report zero timings (they skipped construction entirely).
type BuildTimings struct {
	// Leaves is step 1: grouping partitions into leaf nodes.
	Leaves time.Duration
	// Hierarchy is step 2 (Algorithm 1): merging nodes level by level.
	Hierarchy time.Duration
	// LeafMatrices is step 3: Dijkstra searches populating leaf matrices
	// and superior doors. Parallelised per leaf.
	LeafMatrices time.Duration
	// NonLeafMatrices is step 4: level graphs and non-leaf matrices.
	// Parallelised per node within each level.
	NonLeafMatrices time.Duration
	// VIPMaterialise is the per-door ancestor materialisation of Section
	// 2.2; zero for plain IP-Trees. Parallelised per door.
	VIPMaterialise time.Duration
}

// BuildTimings returns the recorded construction-phase durations.
func (t *Tree) BuildTimings() BuildTimings { return t.timings }

// BuildIPTree constructs an IP-Tree over the venue. The built tree is
// arena-packed (arena.go): its matrices and door sets live in per-tree
// contiguous slabs, frozen for serving.
func BuildIPTree(v *model.Venue, opts Options) (*Tree, error) {
	if v == nil || v.NumPartitions() == 0 {
		return nil, fmt.Errorf("iptree: venue is empty")
	}
	t := &Tree{venue: v, opts: opts}
	phase := time.Now()
	t.buildLeaves()
	t.timings.Leaves = time.Since(phase)
	phase = time.Now()
	t.buildHierarchy()
	leavesOfDoor, accessNodesOfDoor := t.indexDoors()
	t.timings.Hierarchy = time.Since(phase)
	phase = time.Now()
	superiorDoors := t.buildLeafMatrices()
	t.timings.LeafMatrices = time.Since(phase)
	phase = time.Now()
	t.buildNonLeafMatrices()
	t.timings.NonLeafMatrices = time.Since(phase)
	t.pack(leavesOfDoor, accessNodesOfDoor, superiorDoors)
	return t, nil
}

// MustBuildIPTree is BuildIPTree but panics on error.
func MustBuildIPTree(v *model.Venue, opts Options) *Tree {
	t, err := BuildIPTree(v, opts)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements index.DistanceQuerier.
func (t *Tree) Name() string { return "IP-Tree" }

// Venue returns the venue the tree indexes.
func (t *Tree) Venue() *model.Venue { return t.venue }

// Root returns the root node ID.
func (t *Tree) Root() NodeID { return t.root }

// Node returns the node with the given ID.
func (t *Tree) Node(id NodeID) *Node { return &t.nodes[id] }

// NumNodes returns the total number of nodes in the tree.
func (t *Tree) NumNodes() int { return len(t.nodes) }

// NumLeaves returns the number of leaf nodes (M in the paper's analysis).
func (t *Tree) NumLeaves() int {
	n := 0
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			n++
		}
	}
	return n
}

// Height returns the number of levels of the tree.
func (t *Tree) Height() int { return t.nodes[t.root].Level }

// Leaf returns the leaf node containing partition p.
func (t *Tree) Leaf(p model.PartitionID) NodeID { return t.leafOfPartition[p] }

// doorIsAccess reports whether door d is an access door of at least one node.
func (t *Tree) doorIsAccess(d model.DoorID) bool { return !t.pk.accessNodesOfDoor.empty(d) }

// DoorsOfLeaf returns all doors belonging to the partitions of leaf n, or
// nil for non-leaf nodes.
func (t *Tree) DoorsOfLeaf(n NodeID) []model.DoorID {
	if n < 0 || int(n) >= len(t.doorsOfLeaf) {
		return nil
	}
	return t.doorsOfLeaf[n]
}

// SuperiorDoors returns the superior doors of partition p (Definition 2) as
// a view of the doors slab.
func (t *Tree) SuperiorDoors(p model.PartitionID) []model.DoorID { return t.pk.superiorDoorsOf(p) }

// numSuperiorDoorSets returns the number of per-partition superior-door
// lists.
func (t *Tree) numSuperiorDoorSets() int { return len(t.pk.supDoorOff) - 1 }

// IsAncestor reports whether a is an ancestor of (or equal to) n.
func (t *Tree) IsAncestor(a, n NodeID) bool {
	for cur := n; cur != invalidNode; cur = t.nodes[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// LCA returns the lowest common ancestor of nodes a and b.
func (t *Tree) LCA(a, b NodeID) NodeID {
	// Walk both nodes up to the same level, then in lockstep.
	for t.nodes[a].Level < t.nodes[b].Level {
		a = t.nodes[a].Parent
	}
	for t.nodes[b].Level < t.nodes[a].Level {
		b = t.nodes[b].Parent
	}
	for a != b {
		a = t.nodes[a].Parent
		b = t.nodes[b].Parent
	}
	return a
}

// ChildToward returns the child of ancestor anc on the path towards the
// descendant node n. It panics if anc is not a proper ancestor of n.
func (t *Tree) ChildToward(anc, n NodeID) NodeID {
	cur := n
	for {
		parent := t.nodes[cur].Parent
		if parent == anc {
			return cur
		}
		if parent == invalidNode {
			panic(fmt.Sprintf("iptree: node %d is not a proper ancestor of %d", anc, n))
		}
		cur = parent
	}
}

// Stats summarises the structural properties that drive the paper's
// complexity analysis (Table 1): ρ (average access doors per node), f
// (average children per non-leaf node), M (leaf count), plus height and an
// estimate of the memory used by the distance matrices.
type Stats struct {
	Nodes            int
	Leaves           int
	Height           int
	AvgAccessDoors   float64 // ρ
	MaxAccessDoors   int
	AvgFanout        float64 // f
	AvgSuperiorDoors float64 // α
	MaxSuperiorDoors int
	MatrixBytes      int64
}

// TreeStats computes the tree statistics.
func (t *Tree) TreeStats() Stats {
	s := Stats{Nodes: len(t.nodes), Leaves: t.NumLeaves(), Height: t.Height()}
	totalAD, nonLeaf, totalChildren := 0, 0, 0
	for i := range t.nodes {
		n := &t.nodes[i]
		totalAD += len(n.AccessDoors)
		if len(n.AccessDoors) > s.MaxAccessDoors {
			s.MaxAccessDoors = len(n.AccessDoors)
		}
		if !n.IsLeaf() {
			nonLeaf++
			totalChildren += len(n.Children)
		}
		if n.Matrix != nil {
			s.MatrixBytes += sizeofMatrixStruct
		}
	}
	// The cells of every matrix live in the shared arenas.
	s.MatrixBytes += int64(len(t.pk.dist))*8 + int64(len(t.pk.next))*4
	if len(t.nodes) > 0 {
		s.AvgAccessDoors = float64(totalAD) / float64(len(t.nodes))
	}
	if nonLeaf > 0 {
		s.AvgFanout = float64(totalChildren) / float64(nonLeaf)
	}
	totalSup := 0
	numSets := t.numSuperiorDoorSets()
	for p := 0; p < numSets; p++ {
		n := len(t.SuperiorDoors(model.PartitionID(p)))
		totalSup += n
		if n > s.MaxSuperiorDoors {
			s.MaxSuperiorDoors = n
		}
	}
	if numSets > 0 {
		s.AvgSuperiorDoors = float64(totalSup) / float64(numSets)
	}
	return s
}

// MemoryBytes reports the memory consumed by the tree's structures,
// arena-exact: the slabs are measured by length, and everything that views
// them — matrices, access-door lists, leaf door sets, superior doors —
// contributes only its slice headers. The D2D graph is shared with the venue
// and not counted.
func (t *Tree) MemoryBytes() int64 {
	total := t.pk.arenaBytes()
	for i := range t.nodes {
		n := &t.nodes[i]
		total += int64(len(n.Children))*sizeofNodeID + int64(len(n.Partitions))*sizeofInt + sizeofNodeStruct
		if n.Matrix != nil {
			// Cells and door sets live in the slabs; only the struct (the
			// views) is per-node.
			total += sizeofMatrixStruct
		}
	}
	total += int64(len(t.doorsOfLeaf)) * sizeofSliceHeader
	total += int64(len(t.leafOfPartition)) * sizeofNodeID
	total += int64(len(t.isLeafAccessDoor))
	return total
}

// Stats implements index.Index: the uniform construction metadata shared by
// every index in the repository. The structural details of TreeStats are
// exposed under stable keys.
func (t *Tree) Stats() index.Stats {
	return t.indexStats(t.Name(), t.MemoryBytes())
}

func (t *Tree) indexStats(name string, memory int64) index.Stats {
	s := t.TreeStats()
	cc := t.climb.stats()
	return index.Stats{
		Name:        name,
		MemoryBytes: memory,
		Details: map[string]float64{
			"nodes":               float64(s.Nodes),
			"leaves":              float64(s.Leaves),
			"height":              float64(s.Height),
			"avg_access_doors":    s.AvgAccessDoors,
			"max_access_doors":    float64(s.MaxAccessDoors),
			"avg_fanout":          s.AvgFanout,
			"avg_superior_doors":  s.AvgSuperiorDoors,
			"matrix_bytes":        float64(s.MatrixBytes),
			"climb_cache_hits":    float64(cc.Hits),
			"climb_cache_misses":  float64(cc.Misses),
			"climb_cache_entries": float64(cc.Entries),
			"climb_cache_bytes":   float64(cc.Bytes),
		},
	}
}

// Stats implements index.Index for the VIP-Tree, including the materialised
// entries in the reported memory footprint.
func (vt *VIPTree) Stats() index.Stats {
	return vt.indexStats(vt.Name(), vt.MemoryBytes())
}

// NewObjectQuerier implements index.ObjectIndexer.
func (t *Tree) NewObjectQuerier(objects []model.Location) index.ObjectQuerier {
	return t.IndexObjects(objects)
}

// NewObjectQuerier implements index.ObjectIndexer.
func (vt *VIPTree) NewObjectQuerier(objects []model.Location) index.ObjectQuerier {
	return vt.IndexObjects(objects)
}
