// Package road implements the ROAD baseline adapted to indoor door-to-door
// graphs (Section 4.1 of the paper; Lee et al., TKDE 2012). ROAD organises
// the network into a hierarchy of regional sub-networks (Rnets) and attaches
// border-to-border shortcuts to each Rnet, so that a query-time search can
// skip over Rnets that contain neither endpoint.
//
// This re-implementation keeps the essential mechanism — Rnet partitioning,
// exact border shortcuts and search-time Rnet skipping — while using a
// spatial partitioner (the original uses a generic graph partitioner). As
// the paper observes, the high out-degree of indoor D2D graphs produces Rnets
// with very many borders, which is why ROAD trails the indoor-aware indexes
// by orders of magnitude.
package road

import (
	"sort"
	"unsafe"

	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
)

// Options configures ROAD construction.
type Options struct {
	// RnetSize is the target number of doors per Rnet. Zero selects 128.
	RnetSize int
}

func (o Options) rnetSize() int {
	if o.RnetSize <= 0 {
		return 128
	}
	return o.RnetSize
}

// rnet is one regional sub-network: a set of doors, its border doors and the
// exact border-to-border shortcut distances.
type rnet struct {
	id       int
	vertices []int
	borders  []int
	// member marks the doors inside this Rnet.
	member map[int]bool
	// shortcut[b1*n+b2] indexes into the borders slice.
	shortcut map[[2]int]float64
}

// Index is a ROAD route overlay over a venue's D2D graph.
type Index struct {
	venue   *model.Venue
	g       *graph.Graph
	rnets   []rnet
	rnetOf  []int
	objects []model.Location
}

// Build constructs the ROAD route overlay.
func Build(v *model.Venue, opts Options) *Index {
	ix := &Index{venue: v, g: v.D2D().Graph, rnetOf: make([]int, v.NumDoors())}
	// Partition doors spatially into Rnets of roughly RnetSize doors.
	doors := make([]int, v.NumDoors())
	for i := range doors {
		doors[i] = i
	}
	sort.Slice(doors, func(i, j int) bool {
		a := v.Door(model.DoorID(doors[i])).Loc
		b := v.Door(model.DoorID(doors[j])).Loc
		if a.Floor != b.Floor {
			return a.Floor < b.Floor
		}
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	})
	size := opts.rnetSize()
	for start := 0; start < len(doors); start += size {
		end := start + size
		if end > len(doors) {
			end = len(doors)
		}
		id := len(ix.rnets)
		rn := rnet{id: id, vertices: append([]int(nil), doors[start:end]...), member: make(map[int]bool), shortcut: make(map[[2]int]float64)}
		for _, d := range rn.vertices {
			rn.member[d] = true
			ix.rnetOf[d] = id
		}
		ix.rnets = append(ix.rnets, rn)
	}
	// Borders and shortcuts.
	var sc graph.SearchScratch
	for i := range ix.rnets {
		rn := &ix.rnets[i]
		for _, d := range rn.vertices {
			for _, e := range ix.g.Neighbors(d) {
				if !rn.member[e.To] {
					rn.borders = append(rn.borders, d)
					break
				}
			}
		}
		sort.Ints(rn.borders)
		for _, b := range rn.borders {
			sc.Reset(ix.g.NumVertices())
			sc.Seed(b, 0)
			for _, b2 := range rn.borders {
				sc.Target(b2)
			}
			dist, _ := sc.Run(ix.g)
			for _, b2 := range rn.borders {
				if dist[b2] != graph.Infinity {
					rn.shortcut[[2]int{b, b2}] = dist[b2]
				}
			}
		}
	}
	return ix
}

// Name implements index.DistanceQuerier.
func (ix *Index) Name() string { return "ROAD" }

// MemoryBytes reports the memory consumed by the route overlay.
func (ix *Index) MemoryBytes() int64 {
	var total int64
	shortcutEntry := int64(unsafe.Sizeof([2]int{})+unsafe.Sizeof(float64(0))) + 16 // key + value + map bookkeeping
	memberEntry := int64(unsafe.Sizeof(int(0))+unsafe.Sizeof(false)) + 16
	for i := range ix.rnets {
		rn := &ix.rnets[i]
		total += int64(len(rn.shortcut))*shortcutEntry +
			int64(len(rn.member))*memberEntry +
			int64(len(rn.vertices)+len(rn.borders))*int64(unsafe.Sizeof(int(0))) +
			int64(unsafe.Sizeof(*rn))
	}
	total += int64(len(ix.rnetOf)) * int64(unsafe.Sizeof(int(0)))
	return total
}

// Distance performs the ROAD search: a Dijkstra expansion that traverses
// Rnets containing neither endpoint only through their border shortcuts.
func (ix *Index) Distance(s, t model.Location) float64 {
	var sc graph.SearchScratch
	return ix.search(&sc, s, t)
}

// Path returns the shortest distance and the door sequence of the shortest
// path. ROAD's shortcuts collapse whole Rnets into single hops, so the door
// sequence is re-expanded with a plain graph search after the overlay search
// determines the distance.
func (ix *Index) Path(s, t model.Location) (float64, []model.DoorID) {
	d := ix.Distance(s, t)
	if s.Partition == t.Partition {
		return d, nil
	}
	_, doors := ix.venue.D2D().LocationPath(s, t)
	return d, doors
}

// search runs the overlay Dijkstra on sc from the doors of s's partition to
// the doors of t's partition.
func (ix *Index) search(sc *graph.SearchScratch, s, t model.Location) float64 {
	v := ix.venue
	if s.Partition == t.Partition {
		return v.SamePartitionDist(s, t)
	}
	// Rnets containing an endpoint are traversed edge by edge; all other
	// Rnets are traversed via shortcuts only.
	open := make(map[int]bool)
	for _, d := range v.Partition(s.Partition).Doors {
		open[ix.rnetOf[int(d)]] = true
	}
	for _, d := range v.Partition(t.Partition).Doors {
		open[ix.rnetOf[int(d)]] = true
	}
	sc.Reset(ix.g.NumVertices())
	for _, d := range v.Partition(s.Partition).Doors {
		sc.Seed(int(d), v.DistToDoor(s, d))
	}
	for _, d := range v.Partition(t.Partition).Doors {
		sc.Target(int(d))
	}
	for {
		u, du, ok := sc.Pop()
		if !ok {
			break
		}
		rnID := ix.rnetOf[u]
		rn := &ix.rnets[rnID]
		if open[rnID] {
			// Endpoint Rnet: expand original edges.
			for _, e := range ix.g.Neighbors(u) {
				sc.Relax(u, e.To, du+e.Weight)
			}
			continue
		}
		// Transit Rnet: jump to its other borders via shortcuts, and cross
		// into neighbouring Rnets via original edges that leave the Rnet.
		for _, b := range rn.borders {
			if b == u {
				continue
			}
			if w, ok := rn.shortcut[[2]int{u, b}]; ok {
				sc.Relax(u, b, du+w)
			}
		}
		for _, e := range ix.g.Neighbors(u) {
			if !rn.member[e.To] {
				sc.Relax(u, e.To, du+e.Weight)
			}
		}
	}
	best := graph.Infinity
	for _, d := range v.Partition(t.Partition).Doors {
		if dd := sc.Dist(int(d)); dd != graph.Infinity {
			best = min(best, dd+v.DistToDoor(t, d))
		}
	}
	return best
}

// IndexObjects registers objects for kNN/range queries.
func (ix *Index) IndexObjects(objects []model.Location) *Index {
	ix.objects = objects
	return ix
}

// KNN returns the k nearest objects, evaluating each object with the overlay
// search (the adapted ROAD has no object-aware pruning on indoor graphs).
func (ix *Index) KNN(q model.Location, k int) []index.ObjectResult {
	all := ix.allDistances(q)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Range returns all objects within r of q.
func (ix *Index) Range(q model.Location, r float64) []index.ObjectResult {
	all := ix.allDistances(q)
	out := all[:0:0]
	for _, a := range all {
		if a.Dist <= r {
			out = append(out, a)
		}
	}
	return out
}

func (ix *Index) allDistances(q model.Location) []index.ObjectResult {
	out := make([]index.ObjectResult, 0, len(ix.objects))
	var sc graph.SearchScratch
	for id, o := range ix.objects {
		out = append(out, index.ObjectResult{ObjectID: id, Dist: ix.search(&sc, q, o)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	return out
}

// Compile-time conformance with the capability interfaces of
// viptree/internal/index.
var (
	_ index.Index         = (*Index)(nil)
	_ index.ObjectIndexer = (*Index)(nil)
	_ index.ObjectQuerier = (*Index)(nil)
)

// Stats implements index.Index.
func (ix *Index) Stats() index.Stats {
	borders := 0
	for i := range ix.rnets {
		borders += len(ix.rnets[i].borders)
	}
	return index.Stats{
		Name:        ix.Name(),
		MemoryBytes: ix.MemoryBytes(),
		Details: map[string]float64{
			"rnets":   float64(len(ix.rnets)),
			"borders": float64(borders),
		},
	}
}

// NewObjectQuerier implements index.ObjectIndexer. ROAD stores the object
// set on the index itself, so the returned querier is the index.
func (ix *Index) NewObjectQuerier(objects []model.Location) index.ObjectQuerier {
	return ix.IndexObjects(objects)
}
