package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConnectedGraph builds a random connected graph from a uint64 seed.
func randomConnectedGraph(seed uint64) *Graph {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 2 + rng.Intn(40)
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(rng.Intn(i), i, 0.5+rng.Float64()*9.5)
	}
	for i := 0; i < n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0.5+rng.Float64()*9.5)
		}
	}
	return g
}

// TestQuickShortestDistSymmetric: on undirected graphs dist(u,v) == dist(v,u).
func TestQuickShortestDistSymmetric(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		g := randomConnectedGraph(seed)
		n := g.NumVertices()
		u, v := int(a)%n, int(b)%n
		d1 := g.ShortestDist(u, v)
		d2 := g.ShortestDist(v, u)
		return math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickTriangleInequality: dist(u,w) <= dist(u,v) + dist(v,w).
func TestQuickTriangleInequality(t *testing.T) {
	f := func(seed uint64, a, b, c uint8) bool {
		g := randomConnectedGraph(seed)
		n := g.NumVertices()
		u, v, w := int(a)%n, int(b)%n, int(c)%n
		return g.ShortestDist(u, w) <= g.ShortestDist(u, v)+g.ShortestDist(v, w)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPathMatchesDistance: the reconstructed path's edge weights sum to
// the reported distance and every hop is a real edge.
func TestQuickPathMatchesDistance(t *testing.T) {
	f := func(seed uint64, a, b uint8) bool {
		g := randomConnectedGraph(seed)
		n := g.NumVertices()
		u, v := int(a)%n, int(b)%n
		d, path := g.ShortestPath(u, v)
		if d == Infinity {
			return path == nil
		}
		if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
			return false
		}
		var sum float64
		for i := 1; i < len(path); i++ {
			w, ok := g.EdgeWeight(path[i-1], path[i])
			if !ok {
				return false
			}
			sum += w
		}
		return math.Abs(sum-d) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickToTargetsMatchesFromSource: distances reported for requested
// targets match the full single-source distances.
func TestQuickToTargetsMatchesFromSource(t *testing.T) {
	f := func(seed uint64, a, b, c uint8) bool {
		g := randomConnectedGraph(seed)
		n := g.NumVertices()
		s := int(a) % n
		targets := []int{int(b) % n, int(c) % n}
		full, _ := g.FromSource(s)
		var sc SearchScratch
		partial, _ := searchToTargets(g, &sc, s, targets)
		for _, t := range targets {
			if math.Abs(full[t]-partial[t]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
