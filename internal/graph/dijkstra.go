package graph

import "slices"

// This file holds the repository's one Dijkstra search. SearchScratch runs it
// on caller-owned buffers: seeds at any start distance (so the search is
// multi-source), an optional target set that ends the search once every
// target is settled, and a predecessor for every reached vertex. Run relaxes the edges of a Graph; Pop and Relax let a
// caller drive the loop itself, to evaluate objects at each settled vertex
// or to relax edges the graph does not hold. FromSource, ShortestDist and
// ShortestPath wrap a fresh scratch.
//
// Every user builds on this search: the IP-Tree leaf and level-graph
// matrices ("a Dijkstra's search until all doors in the node N are
// reached", Section 2.1.2), the exact D2D location searches, and the DistAw,
// ROAD, G-tree and DistMx baselines.

// SearchScratch is one Dijkstra search and the buffers it reuses: the dense
// distance and predecessor arrays, the priority queue and the target marks.
// Reset clears only the vertices the previous search touched, so a sequence
// of localised searches (one per access door of every tree node) costs
// O(vertices explored) each rather than O(graph). A scratch is owned by one
// goroutine at a time; the graph is only read, so concurrent searches with
// distinct scratches are safe. The zero value is ready for Reset.
//
// A search is Reset, then seeded (Seed) and optionally given targets
// (Target), then run, either by Run or by a caller loop of Pop and Relax. Edge weights must be non-negative, which Graph enforces.
type SearchScratch struct {
	n       int
	dist    []float64
	prev    []int
	touched []int
	heap    minHeap
	// targetStamp marks the pending targets of the current search: a mark is
	// current when it equals epoch, so starting a new target set is O(1).
	targetStamp []uint32
	epoch       uint32
	pending     int
	targeted    bool
}

// Reset starts a new search over a graph with n vertices, with no seeds and
// no targets.
func (sc *SearchScratch) Reset(n int) {
	if len(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.prev = make([]int, n)
		sc.targetStamp = make([]uint32, n)
		for i := range sc.dist {
			sc.dist[i] = Infinity
			sc.prev[i] = -1
		}
		sc.epoch = 0
	} else {
		for _, v := range sc.touched {
			sc.dist[v] = Infinity
			sc.prev[v] = -1
		}
	}
	sc.touched = sc.touched[:0]
	sc.heap.items = sc.heap.items[:0]
	sc.n = n
	sc.pending = 0
	sc.targeted = false
	sc.epoch++
	if sc.epoch == 0 { // epoch wrapped: clear the marks and restart
		clear(sc.targetStamp)
		sc.epoch = 1
	}
}

// Seed offers v as a start vertex at distance d. Of several offers for one
// vertex the smallest counts. Out-of-range vertices are ignored.
func (sc *SearchScratch) Seed(v int, d float64) {
	if v >= 0 && v < sc.n {
		sc.Relax(-1, v, d)
	}
}

// Target adds v to the target set. Once every target is settled the search
// is done; a search given no targets runs until its queue is empty.
// Out-of-range targets are ignored. Targets are set before the search runs.
func (sc *SearchScratch) Target(v int) {
	sc.targeted = true
	if v >= 0 && v < sc.n && sc.targetStamp[v] != sc.epoch {
		sc.targetStamp[v] = sc.epoch
		sc.pending++
	}
}

// Relax offers v at distance d through its predecessor u (-1 for none). If d
// improves on v's distance, v takes it and is queued again; a settled vertex
// is never improved, because weights are non-negative.
func (sc *SearchScratch) Relax(u, v int, d float64) {
	if d < sc.dist[v] {
		if sc.dist[v] == Infinity {
			sc.touched = append(sc.touched, v)
		}
		sc.dist[v] = d
		sc.prev[v] = u
		sc.heap.Push(v, d)
	}
}

// Pop settles the closest queued vertex and returns it with its distance.
// ok is false once the search is done: the queue is empty or every target
// is settled.
func (sc *SearchScratch) Pop() (v int, d float64, ok bool) {
	for len(sc.heap.items) > 0 && (sc.pending > 0 || !sc.targeted) {
		v, d = sc.heap.PopMin()
		// Distances only ever improve, so an entry above v's distance is a
		// stale copy of a vertex already settled.
		if d > sc.dist[v] {
			continue
		}
		if sc.targetStamp[v] == sc.epoch {
			sc.targetStamp[v] = 0
			sc.pending--
		}
		return v, d, true
	}
	return -1, Infinity, false
}

// Run settles vertices in distance order, relaxing the edges of g, until the
// search is done. It returns the distance and predecessor arrays of the
// search: Infinity and -1 for vertices it did not reach, -1 for seeds that
// no other vertex improved. They alias the scratch and stay valid until its
// next Reset. A reached vertex that is not a target may be left unsettled
// when the targets are all settled first.
func (sc *SearchScratch) Run(g *Graph) (dist []float64, prev []int) {
	dist, prev = sc.dist, sc.prev
	for {
		u, d, ok := sc.Pop()
		if !ok {
			break
		}
		// The relax step stays inline: a method call per edge costs a third
		// of a matrix build on venues with hallway cliques.
		for _, e := range g.adj[u] {
			if nd := d + e.Weight; nd < dist[e.To] {
				if dist[e.To] == Infinity {
					sc.touched = append(sc.touched, e.To)
				}
				dist[e.To] = nd
				prev[e.To] = u
				sc.heap.Push(e.To, nd)
			}
		}
	}
	return dist[:sc.n], prev[:sc.n]
}

// Dist returns the distance at which the search has reached v: final once v
// is settled, Infinity when v is unreached.
func (sc *SearchScratch) Dist(v int) float64 { return sc.dist[v] }

// AppendPath appends the vertices of the search's shortest path to t, from
// the seed it starts at to t itself, to dst and returns the extended slice.
// t must have been reached.
func AppendPath[V ~int](dst []V, sc *SearchScratch, t int) []V {
	n := 0
	for v := t; v != -1; v = sc.prev[v] {
		n++
	}
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	dst = dst[:end]
	for v := t; v != -1; v = sc.prev[v] {
		end--
		dst[end] = V(v)
	}
	return dst
}

// FromSource runs a full single-source Dijkstra from s and returns the
// distance to every vertex (Infinity for unreachable vertices) and the
// predecessor array for path reconstruction (-1 for s and unreachable
// vertices). The arrays belong to the caller.
func (g *Graph) FromSource(s int) (dist []float64, prev []int) {
	// The search reaches every vertex of s's component: size the touched
	// list and the queue for that up front rather than growing them.
	n := len(g.adj)
	sc := SearchScratch{touched: make([]int, 0, n), heap: minHeap{items: make([]heapItem, 0, n)}}
	sc.Reset(n)
	sc.Seed(s, 0)
	return sc.Run(g)
}

// ShortestDist returns the length of the shortest path from s to t, or
// Infinity if t is unreachable. The search ends as soon as t is settled.
func (g *Graph) ShortestDist(s, t int) float64 {
	var sc SearchScratch
	return sc.pointToPoint(g, s, t)
}

// ShortestPath returns the length of the shortest path from s to t and the
// sequence of vertices on it (starting with s and ending with t). If t is
// unreachable it returns Infinity and a nil path.
func (g *Graph) ShortestPath(s, t int) (float64, []int) {
	var sc SearchScratch
	d := sc.pointToPoint(g, s, t)
	if d == Infinity {
		return Infinity, nil
	}
	return d, AppendPath([]int(nil), &sc, t)
}

// pointToPoint runs the search from s until t is settled and returns t's
// distance.
func (sc *SearchScratch) pointToPoint(g *Graph, s, t int) float64 {
	sc.Reset(len(g.adj))
	if t < 0 || t >= sc.n {
		return Infinity
	}
	sc.Seed(s, 0)
	sc.Target(t)
	sc.Run(g)
	return sc.dist[t]
}
