// Package graph provides the weighted-graph machinery shared by every index
// in this repository: a compact adjacency-list graph over dense integer
// vertex identifiers and the one Dijkstra search every index runs on it
// (SearchScratch: multi-source, optionally stopped at a target set, on
// caller-owned buffers), with thin single-source and point-to-point
// wrappers.
//
// The door-to-door (D2D) graph and the level-l graphs used to build IP-Tree
// distance matrices (Section 2.1.2 of the paper) are both instances of this
// package's Graph type.
package graph

import (
	"fmt"
	"math"
)

// Infinity is the distance reported for unreachable vertices.
const Infinity = math.MaxFloat64

// Edge is a weighted, directed half-edge stored in an adjacency list.
type Edge struct {
	To     int
	Weight float64
}

// Graph is a weighted graph over vertices 0..N-1 stored as adjacency lists.
// Edges added with AddEdge are undirected (two half-edges); AddArc adds a
// single directed half-edge. The zero value is an empty graph with no
// vertices; use New to pre-size it.
type Graph struct {
	adj [][]Edge
}

// New returns a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Edge, n)}
}

// NumVertices returns the number of vertices in g.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of undirected edges in g, counting each pair of
// half-edges once. Directed arcs added with AddArc count as half an edge and
// are rounded down.
func (g *Graph) NumEdges() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total / 2
}

// NumArcs returns the number of directed half-edges in g.
func (g *Graph) NumArcs() int {
	total := 0
	for _, es := range g.adj {
		total += len(es)
	}
	return total
}

// EnsureVertex grows the graph so that vertex v exists.
func (g *Graph) EnsureVertex(v int) {
	for len(g.adj) <= v {
		g.adj = append(g.adj, nil)
	}
}

// AddArc adds a directed edge from u to v with weight w. It panics if the
// weight is negative: Dijkstra's algorithm requires non-negative weights and
// indoor distances are never negative.
func (g *Graph) AddArc(u, v int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %v on arc %d->%d", w, u, v))
	}
	g.EnsureVertex(u)
	g.EnsureVertex(v)
	g.adj[u] = append(g.adj[u], Edge{To: v, Weight: w})
}

// AddEdge adds an undirected edge between u and v with weight w.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.AddArc(u, v, w)
	g.AddArc(v, u, w)
}

// Neighbors returns the adjacency list of vertex u. The returned slice is
// owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []Edge {
	if u < 0 || u >= len(g.adj) {
		return nil
	}
	return g.adj[u]
}

// MaxOutDegree returns the largest out-degree over all vertices, and 0 for an
// empty graph. The paper highlights that indoor D2D graphs have out-degrees
// of up to 400 compared with 2–4 for road networks.
func (g *Graph) MaxOutDegree() int {
	maxDeg := 0
	for _, es := range g.adj {
		if len(es) > maxDeg {
			maxDeg = len(es)
		}
	}
	return maxDeg
}

// AvgOutDegree returns the average out-degree.
func (g *Graph) AvgOutDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(len(g.adj))
}

// EdgeWeight returns the weight of the minimum-weight arc from u to v and
// whether such an arc exists.
func (g *Graph) EdgeWeight(u, v int) (float64, bool) {
	best := Infinity
	found := false
	for _, e := range g.Neighbors(u) {
		if e.To == v && e.Weight < best {
			best = e.Weight
			found = true
		}
	}
	return best, found
}

// Connected reports whether every vertex in the graph is reachable from
// vertex 0 (trivially true for graphs with at most one vertex).
func (g *Graph) Connected() bool {
	n := len(g.adj)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				count++
				stack = append(stack, e.To)
			}
		}
	}
	return count == n
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]Edge, len(g.adj))}
	for i, es := range g.adj {
		c.adj[i] = append([]Edge(nil), es...)
	}
	return c
}

// MemoryBytes returns an estimate of the memory consumed by the adjacency
// lists, used when reporting index sizes (Fig 8b).
func (g *Graph) MemoryBytes() int64 {
	const edgeBytes = 16 // int + float64
	const sliceHeader = 24
	total := int64(len(g.adj)) * sliceHeader
	for _, es := range g.adj {
		total += int64(cap(es)) * edgeBytes
	}
	return total
}
