// Package distaware implements the distance-aware model baseline (DistAw in
// the paper): spatial queries are answered by Dijkstra-like expansion over
// the door-to-door graph, without materialised distances (Section 1.2.2 and
// the experimental competitor of Section 4.1).
//
// Shortest distance and path queries expand the D2D graph from the source
// until the target partition's doors are settled. kNN and range queries use
// incremental network expansion: the search grows outward from the query
// point and objects are discovered as the partitions holding them are
// reached.
package distaware

import (
	"sort"
	"unsafe"

	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
)

// Index is the distance-aware model over a venue. It holds no materialised
// distances: only the venue's D2D graph and, when objects are indexed, a
// per-partition object list.
type Index struct {
	venue *model.Venue
	// objectsInPartition maps a partition to the IDs of objects inside it.
	objectsInPartition map[model.PartitionID][]int
	objects            []model.Location
}

// New returns a DistAw index over the venue.
func New(v *model.Venue) *Index {
	return &Index{venue: v}
}

// Name implements index.DistanceQuerier.
func (ix *Index) Name() string { return "DistAw" }

// Distance expands the D2D graph from s until t's partition doors are
// settled and returns the shortest indoor distance.
func (ix *Index) Distance(s, t model.Location) float64 {
	return ix.venue.D2D().LocationDist(s, t)
}

// Path returns the shortest distance and the door sequence of the shortest
// path, recovered from the Dijkstra expansion.
func (ix *Index) Path(s, t model.Location) (float64, []model.DoorID) {
	return ix.venue.D2D().LocationPath(s, t)
}

// MemoryBytes reports the memory of the auxiliary structures (the D2D graph
// is shared with the venue; DistAw itself stores almost nothing).
func (ix *Index) MemoryBytes() int64 {
	total := int64(unsafe.Sizeof(*ix))
	for _, ids := range ix.objectsInPartition {
		total += int64(len(ids))*int64(unsafe.Sizeof(int(0))) + mapEntryBytes(unsafe.Sizeof(model.PartitionID(0)), unsafe.Sizeof([]int(nil)))
	}
	total += int64(len(ix.objects)) * int64(unsafe.Sizeof(model.Location{}))
	return total
}

// mapEntryBytes estimates the resident size of one Go map entry with the
// given key and value sizes: payload plus the runtime's per-entry bucket
// bookkeeping (tophash byte and amortised overflow/load-factor overhead,
// ~16 bytes). Shared convention across the baseline estimators.
func mapEntryBytes(key, value uintptr) int64 {
	return int64(key) + int64(value) + 16
}

// IndexObjects registers the object set for kNN and range queries and
// returns the index itself (DistAw keeps objects per partition).
func (ix *Index) IndexObjects(objects []model.Location) *Index {
	ix.objects = objects
	ix.objectsInPartition = make(map[model.PartitionID][]int)
	for id, o := range objects {
		ix.objectsInPartition[o.Partition] = append(ix.objectsInPartition[o.Partition], id)
	}
	return ix
}

// KNN answers a k-nearest-neighbour query by incremental network expansion.
func (ix *Index) KNN(q model.Location, k int) []index.ObjectResult {
	if k <= 0 || len(ix.objects) == 0 {
		return nil
	}
	results := ix.expand(q, func(found []index.ObjectResult, settledDist float64) bool {
		if len(found) < k {
			return false
		}
		// Stop once the k-th best found so far cannot be improved by any
		// object discovered at a greater expansion distance.
		return settledDist > found[k-1].Dist
	})
	if k < len(results) {
		results = results[:k]
	}
	return results
}

// Range answers a range query by expanding the network up to distance r.
func (ix *Index) Range(q model.Location, r float64) []index.ObjectResult {
	if len(ix.objects) == 0 {
		return nil
	}
	results := ix.expand(q, func(_ []index.ObjectResult, settledDist float64) bool {
		return settledDist > r
	})
	out := results[:0:0]
	for _, res := range results {
		if res.Dist <= r {
			out = append(out, res)
		}
	}
	return out
}

// expand runs an incremental network expansion from q. Whenever a door is
// settled, the objects of the partitions adjacent to that door are evaluated.
// stop is consulted with the currently sorted results and the distance of
// the door just settled.
func (ix *Index) expand(q model.Location, stop func([]index.ObjectResult, float64) bool) []index.ObjectResult {
	v := ix.venue
	g := v.D2D().Graph

	best := make(map[int]float64, len(ix.objects))
	// Objects co-located with the query partition are reachable directly.
	for _, id := range ix.objectsInPartition[q.Partition] {
		d := v.SamePartitionDist(q, ix.objects[id])
		if cur, ok := best[id]; !ok || d < cur {
			best[id] = d
		}
	}

	// Multi-source Dijkstra seeded with the doors of the query partition.
	var sc graph.SearchScratch
	sc.Reset(g.NumVertices())
	for _, d := range v.Partition(q.Partition).Doors {
		sc.Seed(int(d), v.DistToDoor(q, d))
	}
	snapshot := func() []index.ObjectResult {
		out := make([]index.ObjectResult, 0, len(best))
		for id, d := range best {
			out = append(out, index.ObjectResult{ObjectID: id, Dist: d})
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Dist != out[j].Dist {
				return out[i].Dist < out[j].Dist
			}
			return out[i].ObjectID < out[j].ObjectID
		})
		return out
	}
	for {
		u, du, ok := sc.Pop()
		if !ok {
			break
		}
		// Evaluate objects in the partitions adjacent to the settled door.
		door := v.Door(model.DoorID(u))
		for _, pid := range door.Partitions {
			for _, id := range ix.objectsInPartition[pid] {
				o := ix.objects[id]
				d := du + v.DistToDoor(o, model.DoorID(u))
				if cur, ok := best[id]; !ok || d < cur {
					best[id] = d
				}
			}
		}
		if stop(snapshot(), du) {
			break
		}
		for _, e := range g.Neighbors(u) {
			sc.Relax(u, e.To, du+e.Weight)
		}
	}
	return snapshot()
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
	return index.Stats{
		Name:        ix.Name(),
		MemoryBytes: ix.MemoryBytes(),
		Details: map[string]float64{
			"doors":   float64(ix.venue.NumDoors()),
			"objects": float64(len(ix.objects)),
		},
	}
}

// NewObjectQuerier implements index.ObjectIndexer. DistAw stores the object
// set on the index itself, so the returned querier is the index.
func (ix *Index) NewObjectQuerier(objects []model.Location) index.ObjectQuerier {
	return ix.IndexObjects(objects)
}
