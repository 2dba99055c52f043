package model

import (
	"sync"

	"viptree/internal/graph"
)

// D2DGraph is the door-to-door graph of a venue (Section 1.2.2): each door is
// a vertex, and a weighted edge connects two doors if they belong to the same
// indoor partition, with the weight being the indoor distance between them.
// Outdoor edges (e.g. between building entrances) are added verbatim.
//
// The vertex identifier of door d is int(d). The graph is immutable after
// construction; the search scratch of LocationDist and LocationPath is
// pooled, so both are safe for concurrent callers. LocationSearch runs the
// same search on caller-owned scratch. These searches are the ground truth
// every index is checked against and the engine of the DistAw baseline; the
// IP-Tree and VIP-Tree answer same-leaf queries from per-leaf door tables
// and search this graph only to build and in a rare path fallback.
type D2DGraph struct {
	Graph *graph.Graph
	venue *Venue

	// searchPool recycles the *graph.SearchScratch of LocationDist and
	// LocationPath.
	searchPool sync.Pool
}

// buildD2D materialises the D2D graph for v.
func buildD2D(v *Venue) *D2DGraph {
	g := graph.New(len(v.Doors))
	for pi := range v.Partitions {
		p := &v.Partitions[pi]
		for i := 0; i < len(p.Doors); i++ {
			for j := i + 1; j < len(p.Doors); j++ {
				a, b := p.Doors[i], p.Doors[j]
				w := v.IntraPartitionDist(p.ID, a, b)
				g.AddEdge(int(a), int(b), w)
			}
		}
	}
	for _, e := range v.OutdoorEdges {
		g.AddEdge(int(e.From), int(e.To), e.Weight)
	}
	d := &D2DGraph{Graph: g, venue: v}
	d.searchPool.New = func() any { return new(graph.SearchScratch) }
	return d
}

// D2D returns the door-to-door graph of the venue. The graph is built once by
// the Builder and shared by all indexes.
func (v *Venue) D2D() *D2DGraph { return v.d2d }

// Dist returns the shortest door-to-door distance between doors a and b using
// Dijkstra's algorithm on the D2D graph. It is the ground-truth distance used
// in tests and by the expansion-based DistAw baseline.
func (d *D2DGraph) Dist(a, b DoorID) float64 {
	return d.Graph.ShortestDist(int(a), int(b))
}

// Path returns the shortest door-to-door path between doors a and b (as door
// IDs) and its length. It returns a nil path if b is unreachable from a.
func (d *D2DGraph) Path(a, b DoorID) (float64, []DoorID) {
	dist, p := d.Graph.ShortestPath(int(a), int(b))
	if p == nil {
		return dist, nil
	}
	doors := make([]DoorID, len(p))
	for i, v := range p {
		doors[i] = DoorID(v)
	}
	return dist, doors
}

// LocationDist computes the exact shortest indoor distance between two
// arbitrary locations by Dijkstra expansion over the D2D graph (see
// LocationSearch). It is the ground truth against which all indexes are
// verified, and also the engine of the DistAw baseline.
func (d *D2DGraph) LocationDist(s, t Location) float64 {
	sc := d.searchPool.Get().(*graph.SearchScratch)
	dist, _ := d.LocationSearch(sc, s, t)
	d.searchPool.Put(sc)
	return dist
}

// LocationPath computes the exact shortest path between two locations as the
// sequence of doors traversed, along with its total length, which equals
// LocationDist bit for bit. The sequence is nil when both locations are in
// the same partition or t is unreachable.
func (d *D2DGraph) LocationPath(s, t Location) (float64, []DoorID) {
	sc := d.searchPool.Get().(*graph.SearchScratch)
	dist, last := d.LocationSearch(sc, s, t)
	var doors []DoorID
	if last >= 0 {
		doors = graph.AppendPath(doors, sc, int(last))
	}
	d.searchPool.Put(sc)
	return dist, doors
}

// LocationSearch is the search behind LocationDist and LocationPath, run on
// caller-owned scratch. Locations in one partition are
// Venue.SamePartitionDist apart. Otherwise it runs one multi-source
// Dijkstra seeded at the doors of s's partition with the walk from s to
// each, which stops once every door of t's partition is settled.
//
// It returns the distance and the door through which the shortest path
// enters t's partition; graph.AppendPath(dst, sc, int(last)) then recovers
// the doors of that path, from the first door crossed to last. last is -1
// when s and t share a partition or t is unreachable.
func (d *D2DGraph) LocationSearch(sc *graph.SearchScratch, s, t Location) (dist float64, last DoorID) {
	v := d.venue
	if s.Partition == t.Partition {
		return v.SamePartitionDist(s, t), -1
	}
	d.seed(sc, s)
	for _, did := range v.Partition(t.Partition).Doors {
		sc.Target(int(did))
	}
	sc.Run(d.Graph)
	return d.enter(sc, t)
}

// seed starts a search on sc from s: every door of s's partition, at the
// walk from s to it.
func (d *D2DGraph) seed(sc *graph.SearchScratch, s Location) {
	v := d.venue
	sc.Reset(len(v.Doors))
	for _, did := range v.Partition(s.Partition).Doors {
		sc.Seed(int(did), v.DistToDoor(s, did))
	}
}

// enter returns the distance from the search's source to t through the
// reached door of t's partition that gives the least, and that door
// (Infinity and -1 when the search reached none).
func (d *D2DGraph) enter(sc *graph.SearchScratch, t Location) (dist float64, last DoorID) {
	v := d.venue
	dist, last = graph.Infinity, -1
	for _, did := range v.Partition(t.Partition).Doors {
		if dv := sc.Dist(int(did)); dv != graph.Infinity {
			if total := dv + v.DistToDoor(t, did); total < dist {
				dist, last = total, did
			}
		}
	}
	return dist, last
}
