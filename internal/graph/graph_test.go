package graph

import (
	"math"
	"math/rand"
	"testing"
)

func buildDiamond() *Graph {
	// 0 --1-- 1 --1-- 3
	//  \             /
	//   --2-- 2 --1--
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 1)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := buildDiamond()
	if got := g.NumVertices(); got != 4 {
		t.Errorf("NumVertices = %d, want 4", got)
	}
	if got := g.NumEdges(); got != 4 {
		t.Errorf("NumEdges = %d, want 4", got)
	}
	if got := g.NumArcs(); got != 8 {
		t.Errorf("NumArcs = %d, want 8", got)
	}
	if got := g.MaxOutDegree(); got != 2 {
		t.Errorf("MaxOutDegree = %d, want 2", got)
	}
	if got := g.AvgOutDegree(); got != 2 {
		t.Errorf("AvgOutDegree = %v, want 2", got)
	}
	if w, ok := g.EdgeWeight(0, 2); !ok || w != 2 {
		t.Errorf("EdgeWeight(0,2) = %v,%v want 2,true", w, ok)
	}
	if _, ok := g.EdgeWeight(1, 2); ok {
		t.Error("EdgeWeight(1,2) should not exist")
	}
}

func TestAddArcPanicsOnNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddArc with negative weight should panic")
		}
	}()
	g := New(2)
	g.AddArc(0, 1, -1)
}

func TestEnsureVertexGrowsGraph(t *testing.T) {
	g := New(0)
	g.AddEdge(5, 7, 1.5)
	if g.NumVertices() != 8 {
		t.Errorf("NumVertices = %d, want 8", g.NumVertices())
	}
	if w, ok := g.EdgeWeight(5, 7); !ok || w != 1.5 {
		t.Errorf("EdgeWeight(5,7) = %v,%v", w, ok)
	}
}

func TestConnected(t *testing.T) {
	g := buildDiamond()
	if !g.Connected() {
		t.Error("diamond graph should be connected")
	}
	g.EnsureVertex(10)
	if g.Connected() {
		t.Error("graph with isolated vertex should not be connected")
	}
	if New(0).Connected() != true {
		t.Error("empty graph is trivially connected")
	}
	if New(1).Connected() != true {
		t.Error("single-vertex graph is trivially connected")
	}
}

func TestClone(t *testing.T) {
	g := buildDiamond()
	c := g.Clone()
	c.AddEdge(0, 3, 0.1)
	if d := g.ShortestDist(0, 3); math.Abs(d-2) > 1e-9 {
		t.Errorf("original graph modified by clone edit: dist = %v", d)
	}
	if d := c.ShortestDist(0, 3); math.Abs(d-0.1) > 1e-9 {
		t.Errorf("clone dist = %v, want 0.1", d)
	}
}

func TestShortestDistAndPath(t *testing.T) {
	g := buildDiamond()
	if d := g.ShortestDist(0, 3); d != 2 {
		t.Errorf("ShortestDist(0,3) = %v, want 2", d)
	}
	d, path := g.ShortestPath(0, 3)
	if d != 2 {
		t.Errorf("ShortestPath dist = %v, want 2", d)
	}
	want := []int{0, 1, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestShortestPathSameVertex(t *testing.T) {
	g := buildDiamond()
	d, path := g.ShortestPath(2, 2)
	if d != 0 || len(path) != 1 || path[0] != 2 {
		t.Errorf("ShortestPath(2,2) = %v, %v", d, path)
	}
	if d := g.ShortestDist(2, 2); d != 0 {
		t.Errorf("ShortestDist(2,2) = %v", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := buildDiamond()
	g.EnsureVertex(9)
	if d := g.ShortestDist(0, 9); d != Infinity {
		t.Errorf("unreachable dist = %v, want Infinity", d)
	}
	d, path := g.ShortestPath(0, 9)
	if d != Infinity || path != nil {
		t.Errorf("unreachable path = %v, %v", d, path)
	}
	if d := g.ShortestDist(-1, 2); d != Infinity {
		t.Errorf("invalid source dist = %v", d)
	}
}

func TestFromSource(t *testing.T) {
	g := buildDiamond()
	dist, prev := g.FromSource(0)
	wantDist := []float64{0, 1, 2, 2}
	for v, want := range wantDist {
		if dist[v] != want {
			t.Errorf("dist[%d] = %v, want %v", v, dist[v], want)
		}
	}
	if prev[0] != -1 {
		t.Errorf("prev[source] = %d, want -1", prev[0])
	}
	hops := 0
	for v := 3; v != 0; v = prev[v] {
		if v == -1 || hops > 3 {
			t.Fatalf("predecessor chain from 3 does not reach the source: %v", prev)
		}
		hops++
	}
	if hops != 2 {
		t.Errorf("predecessor chain from 3 has %d hops, want 2", hops)
	}
}

// searchToTargets runs the kernel from s until every target is settled.
func searchToTargets(g *Graph, sc *SearchScratch, s int, targets []int) ([]float64, []int) {
	sc.Reset(g.NumVertices())
	sc.Seed(s, 0)
	for _, v := range targets {
		sc.Target(v)
	}
	return sc.Run(g)
}

func TestToTargets(t *testing.T) {
	// A path graph 0-1-2-3-4-5; asking only for targets {1,2} must not
	// require settling 5.
	g := New(6)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 1)
	}
	var sc SearchScratch
	dist, _ := searchToTargets(g, &sc, 0, []int{1, 2})
	if dist[1] != 1 || dist[2] != 2 {
		t.Errorf("target dists = %v, %v", dist[1], dist[2])
	}
	// The search stops once targets are settled, so far vertices stay at
	// Infinity.
	if dist[5] != Infinity {
		t.Errorf("dist[5] = %v, expected Infinity (not explored)", dist[5])
	}
	// Out-of-range targets are ignored.
	dist, _ = searchToTargets(g, &sc, 0, []int{99, 3})
	if dist[3] != 3 {
		t.Errorf("dist[3] = %v, want 3", dist[3])
	}
}

func TestDijkstraAgainstFloydWarshallRandom(t *testing.T) {
	// Property test: on random graphs Dijkstra's point-to-point distance
	// must equal the Floyd–Warshall all-pairs answer, and so must the
	// kernel's full shape — several seeds at random start offsets, stopped
	// at a random target subset.
	rng := rand.New(rand.NewSource(42))
	var sc SearchScratch // reused across graphs of every size
	for iter := 0; iter < 20; iter++ {
		n := 2 + rng.Intn(30)
		g := New(n)
		// random connected-ish graph: spanning chain plus random extras
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i, 1+rng.Float64()*10)
		}
		extra := rng.Intn(3 * n)
		for i := 0; i < extra; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Float64()*10)
			}
		}
		// Floyd–Warshall
		fw := make([][]float64, n)
		for i := range fw {
			fw[i] = make([]float64, n)
			for j := range fw[i] {
				if i == j {
					fw[i][j] = 0
				} else {
					fw[i][j] = Infinity
				}
			}
		}
		for u := 0; u < n; u++ {
			for _, e := range g.Neighbors(u) {
				if e.Weight < fw[u][e.To] {
					fw[u][e.To] = e.Weight
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if fw[i][k]+fw[k][j] < fw[i][j] {
						fw[i][j] = fw[i][k] + fw[k][j]
					}
				}
			}
		}
		for trial := 0; trial < 10; trial++ {
			s, d := rng.Intn(n), rng.Intn(n)
			got := g.ShortestDist(s, d)
			if math.Abs(got-fw[s][d]) > 1e-6 {
				t.Fatalf("iter %d: dist(%d,%d) = %v, Floyd–Warshall = %v", iter, s, d, got, fw[s][d])
			}
			// Path length must equal the distance.
			gd, path := g.ShortestPath(s, d)
			if gd == Infinity {
				continue
			}
			var sum float64
			for i := 1; i < len(path); i++ {
				w, ok := g.EdgeWeight(path[i-1], path[i])
				if !ok {
					t.Fatalf("path %v contains non-edge %d-%d", path, path[i-1], path[i])
				}
				sum += w
			}
			if math.Abs(sum-gd) > 1e-6 {
				t.Fatalf("path weight %v != dist %v", sum, gd)
			}
		}
		for trial := 0; trial < 10; trial++ {
			sc.Reset(n)
			offset := map[int]float64{} // smallest start offset per seed
			for k := 1 + rng.Intn(4); k > 0; k-- {
				v, off := rng.Intn(n), rng.Float64()*20
				sc.Seed(v, off)
				if cur, ok := offset[v]; !ok || off < cur {
					offset[v] = off
				}
			}
			targets := rng.Perm(n)[:1+rng.Intn(n)]
			for _, v := range targets {
				sc.Target(v)
			}
			sc.Run(g)
			for _, v := range targets {
				want := Infinity
				for s, off := range offset {
					if fw[s][v] != Infinity && off+fw[s][v] < want {
						want = off + fw[s][v]
					}
				}
				got := sc.Dist(v)
				if got == Infinity || math.Abs(got-want) > 1e-9 {
					t.Fatalf("iter %d: seeded dist(%d) = %v, min over seeds of offset + Floyd–Warshall = %v", iter, v, got, want)
				}
				// The predecessor walk must be a chain of real edges from
				// a seed whose offset plus edge weights is the distance.
				path := AppendPath([]int(nil), &sc, v)
				sum, ok := offset[path[0]]
				if !ok {
					t.Fatalf("iter %d: path %v to target %d starts at a non-seed", iter, path, v)
				}
				for i := 1; i < len(path); i++ {
					w, ok := g.EdgeWeight(path[i-1], path[i])
					if !ok {
						t.Fatalf("iter %d: path %v contains non-edge %d-%d", iter, path, path[i-1], path[i])
					}
					sum += w
				}
				if math.Abs(sum-got) > 1e-9 {
					t.Fatalf("iter %d: path %v weighs %v with its seed offset, dist %v", iter, path, sum, got)
				}
			}
		}
		// A caller loop of Pop and Relax settles every vertex the seed
		// reaches once, at its Floyd–Warshall distance, and no other.
		for trial := 0; trial < 10; trial++ {
			sc.Reset(n)
			src, off := rng.Intn(n), rng.Float64()*5
			sc.Seed(src, off)
			settled := make([]bool, n)
			for {
				u, du, ok := sc.Pop()
				if !ok {
					break
				}
				if settled[u] {
					t.Fatalf("iter %d: Pop settled %d twice", iter, u)
				}
				settled[u] = true
				for _, e := range g.Neighbors(u) {
					sc.Relax(u, e.To, du+e.Weight)
				}
			}
			for v := 0; v < n; v++ {
				if fw[src][v] == Infinity {
					if settled[v] || sc.Dist(v) != Infinity {
						t.Fatalf("iter %d: unreachable vertex %d settled %v at %v", iter, v, settled[v], sc.Dist(v))
					}
					continue
				}
				if got, want := sc.Dist(v), off+fw[src][v]; !settled[v] || math.Abs(got-want) > 1e-9 {
					t.Fatalf("iter %d: vertex %d settled %v at %v, want %v", iter, v, settled[v], got, want)
				}
			}
		}
	}
}

func TestMinHeapOrdering(t *testing.T) {
	var h minHeap
	values := []float64{5, 3, 8, 1, 9, 2, 7}
	for i, v := range values {
		h.Push(i, v)
	}
	prev := -1.0
	for len(h.items) > 0 {
		_, d := h.PopMin()
		if d < prev {
			t.Fatalf("heap returned %v after %v", d, prev)
		}
		prev = d
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	g := buildDiamond()
	if g.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive for a non-empty graph")
	}
}

// TestSearchScratchReuseMatchesFresh is the property test for the recycled
// kernel scratch: a single SearchScratch reused across many multi-seed,
// targeted searches on random graphs of varying size must reproduce a fresh
// scratch's answers exactly, including predecessor chains. This is what
// makes scratch reuse safe for the matrix builder, which runs thousands of
// localised searches per tree, and for the per-query scratch of the
// in-leaf searches of same-leaf paths.
func TestSearchScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused SearchScratch
	for iter := 0; iter < 30; iter++ {
		n := 2 + rng.Intn(40)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i, 1+rng.Float64()*10)
		}
		for i := 0; i < rng.Intn(3*n); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Float64()*10)
			}
		}
		for run := 0; run < 5; run++ {
			seeds := make([]int, 1+rng.Intn(3))
			offsets := make([]float64, len(seeds))
			for i := range seeds {
				seeds[i], offsets[i] = rng.Intn(n), rng.Float64()*5
			}
			targets := make([]int, 1+rng.Intn(n))
			for i := range targets {
				targets[i] = rng.Intn(n)
			}
			var fresh SearchScratch
			search := func(sc *SearchScratch) ([]float64, []int) {
				sc.Reset(n)
				for i, s := range seeds {
					sc.Seed(s, offsets[i])
				}
				for _, v := range targets {
					sc.Target(v)
				}
				return sc.Run(g)
			}
			wantDist, wantPrev := search(&fresh)
			gotDist, gotPrev := search(&reused)
			for _, v := range targets {
				if gotDist[v] != wantDist[v] {
					t.Fatalf("iter %d run %d: dist[%d] = %v, want %v", iter, run, v, gotDist[v], wantDist[v])
				}
				for cur := v; cur != -1; cur = wantPrev[cur] {
					if gotPrev[cur] != wantPrev[cur] {
						t.Fatalf("iter %d run %d: prev[%d] = %d, want %d", iter, run, cur, gotPrev[cur], wantPrev[cur])
					}
				}
			}
		}
	}
}

// TestSearchScratchWarmAllocFree checks that warm reuse of a SearchScratch
// does not allocate: after the first search sized the buffers, repeated
// searches and path walks into a sized buffer reuse them (heap included).
func TestSearchScratchWarmAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 64
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(i-1, i, 1+rng.Float64()*10)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*10)
		}
	}
	targets := []int{0, n / 2, n - 1}
	var sc SearchScratch
	path := make([]int, 0, n)
	search := func(src int) {
		sc.Reset(n)
		sc.Seed(src, 0)
		sc.Seed((src+1)%n, 0.5)
		for _, v := range targets {
			sc.Target(v)
		}
		sc.Run(g)
		path = AppendPath(path[:0], &sc, n-1)
	}
	search(0) // size the buffers
	src := 0
	allocs := testing.AllocsPerRun(100, func() {
		search(src % n)
		src++
	})
	if allocs != 0 {
		t.Errorf("warm kernel search allocates %.1f allocs/op, want 0", allocs)
	}
}
