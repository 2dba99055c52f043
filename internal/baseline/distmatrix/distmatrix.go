// Package distmatrix implements the Distance Matrix baseline (DistMx in the
// paper): the distances and next-hop doors between all pairs of doors are
// fully materialised, giving O(1) door-to-door lookups at the cost of O(D²)
// storage and a very expensive pre-computation (Section 1.2.2 and the
// DistMx/DistMx-- comparison of Fig 9a).
//
// The package also provides the DistAw++ object queries: kNN and range
// queries answered by brute-force evaluation over the object set using the
// matrix for the door-to-door legs.
package distmatrix

import (
	"sort"
	"sync/atomic"
	"unsafe"

	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
)

// Compile-time conformance with the capability interfaces of
// viptree/internal/index.
var (
	_ index.Index         = (*Matrix)(nil)
	_ index.ObjectIndexer = (*Matrix)(nil)
	_ index.ObjectQuerier = (*ObjectIndex)(nil)
)

// Matrix is the fully materialised door-to-door distance matrix of a venue.
type Matrix struct {
	venue *model.Venue
	n     int
	dist  []float64
	// next[u*n+v] is the first door after u on the shortest path from u to
	// v, or -1 when the path has no intermediate door (or v is
	// unreachable).
	next []int32
	// skipNoThrough enables the optimisation of Section 4.3.1: doors that
	// only lead to no-through partitions are ignored when enumerating the
	// candidate door pairs of a query, because no shortest path between two
	// other partitions can pass through them.
	skipNoThrough bool
	// pairsConsidered accumulates the number of door pairs examined by
	// Distance/Path calls; Fig 9a reports its per-query average. The
	// counters are atomic so that concurrent queries (e.g. through the
	// engine's worker pool) remain race-free.
	pairsConsidered atomic.Int64
	// queries counts Distance/Path invocations.
	queries atomic.Int64
}

// Build materialises the distance matrix by running one full Dijkstra per
// door. withOptimisation selects the DistMx variant (true) or DistMx--
// (false) of Fig 9a.
func Build(v *model.Venue, withOptimisation bool) *Matrix {
	n := v.NumDoors()
	m := &Matrix{
		venue:         v,
		n:             n,
		dist:          make([]float64, n*n),
		next:          make([]int32, n*n),
		skipNoThrough: withOptimisation,
	}
	g := v.D2D().Graph
	for u := 0; u < n; u++ {
		dist, prev := g.FromSource(u)
		for w := 0; w < n; w++ {
			m.dist[u*n+w] = dist[w]
			m.next[u*n+w] = -1
		}
		// next hop from u towards w is the second vertex on the path; we
		// derive it by walking each vertex's predecessor chain towards u.
		for w := 0; w < n; w++ {
			if w == u || dist[w] == graph.Infinity {
				continue
			}
			// Find the neighbour of u on the path to w: follow prev from w
			// until the predecessor is u.
			cur := w
			for prev[cur] != u && prev[cur] != -1 {
				cur = prev[cur]
			}
			if prev[cur] == u {
				if cur != w {
					m.next[u*n+w] = int32(cur)
				}
				// cur == w means the edge u-w is direct: no intermediate door.
			}
		}
	}
	return m
}

// candidateDoors returns the doors of partition p worth considering for a
// query whose other endpoint lies in partition other. With the optimisation
// enabled, doors that only lead into a no-through partition are skipped —
// unless that partition is the other query endpoint itself.
func (m *Matrix) candidateDoors(p, other model.PartitionID) []model.DoorID {
	v := m.venue
	doors := v.Partition(p).Doors
	if !m.skipNoThrough {
		return doors
	}
	useful := make([]model.DoorID, 0, len(doors))
	for _, d := range doors {
		op := v.Door(d).OtherPartition(p)
		if op != model.NoPartition && op != other && v.Kind(op) == model.KindNoThrough {
			continue // the door only leads into a dead-end partition
		}
		useful = append(useful, d)
	}
	if len(useful) == 0 {
		useful = doors
	}
	return useful
}

// Name implements index.DistanceQuerier.
func (m *Matrix) Name() string {
	if m.skipNoThrough {
		return "DistMx"
	}
	return "DistMx--"
}

// DoorDist returns the pre-computed shortest distance between two doors.
func (m *Matrix) DoorDist(a, b model.DoorID) float64 { return m.dist[int(a)*m.n+int(b)] }

// Distance returns the shortest indoor distance between two locations by
// enumerating the candidate door pairs of the two partitions and combining
// them with O(1) matrix lookups.
func (m *Matrix) Distance(s, t model.Location) float64 {
	d, _, _ := m.distanceInternal(s, t)
	return d
}

func (m *Matrix) distanceInternal(s, t model.Location) (float64, model.DoorID, model.DoorID) {
	m.queries.Add(1)
	v := m.venue
	if s.Partition == t.Partition {
		return v.SamePartitionDist(s, t), -1, -1
	}
	best := graph.Infinity
	bestS, bestT := model.DoorID(-1), model.DoorID(-1)
	sDoors := m.candidateDoors(s.Partition, t.Partition)
	tDoors := m.candidateDoors(t.Partition, s.Partition)
	for _, ds := range sDoors {
		for _, dt := range tDoors {
			total := v.DistToDoor(s, ds) + m.DoorDist(ds, dt) + v.DistToDoor(t, dt)
			if total < best {
				best = total
				bestS, bestT = ds, dt
			}
		}
	}
	m.pairsConsidered.Add(int64(len(sDoors)) * int64(len(tDoors)))
	return best, bestS, bestT
}

// Path returns the shortest distance and the door sequence of the shortest
// path, recovered by following the materialised next-hop doors.
func (m *Matrix) Path(s, t model.Location) (float64, []model.DoorID) {
	d, ds, dt := m.distanceInternal(s, t)
	if ds < 0 {
		return d, nil
	}
	doors := []model.DoorID{ds}
	cur := ds
	for cur != dt {
		nxt := m.next[int(cur)*m.n+int(dt)]
		if nxt < 0 {
			break
		}
		doors = append(doors, model.DoorID(nxt))
		cur = model.DoorID(nxt)
	}
	if cur != dt {
		doors = append(doors, dt)
	}
	return d, doors
}

// AvgPairsPerQuery returns the average number of door pairs considered per
// Distance/Path query since construction (Fig 9a).
func (m *Matrix) AvgPairsPerQuery() float64 {
	q := m.queries.Load()
	if q == 0 {
		return 0
	}
	return float64(m.pairsConsidered.Load()) / float64(q)
}

// ResetCounters clears the pair/query counters.
func (m *Matrix) ResetCounters() {
	m.pairsConsidered.Store(0)
	m.queries.Store(0)
}

// Stats implements index.Index.
func (m *Matrix) Stats() index.Stats {
	return index.Stats{
		Name:        m.Name(),
		MemoryBytes: m.MemoryBytes(),
		Details: map[string]float64{
			"doors":               float64(m.n),
			"avg_pairs_per_query": m.AvgPairsPerQuery(),
		},
	}
}

// NewObjectQuerier implements index.ObjectIndexer.
func (m *Matrix) NewObjectQuerier(objects []model.Location) index.ObjectQuerier {
	return m.IndexObjects(objects)
}

// MemoryBytes reports the O(D²) storage of the matrix.
func (m *Matrix) MemoryBytes() int64 {
	cell := int64(unsafe.Sizeof(float64(0)) + unsafe.Sizeof(int32(0)))
	return int64(m.n)*int64(m.n)*cell + int64(unsafe.Sizeof(*m))
}

// ObjectIndex answers kNN and range queries with the distance matrix: this is
// the DistAw++ configuration of the paper (the distance-aware model
// accelerated by DistMx).
type ObjectIndex struct {
	matrix  *Matrix
	objects []model.Location
}

// IndexObjects returns an object index over the matrix.
func (m *Matrix) IndexObjects(objects []model.Location) *ObjectIndex {
	return &ObjectIndex{matrix: m, objects: objects}
}

// Name implements index.ObjectQuerier.
func (oi *ObjectIndex) Name() string { return "DistAw++" }

// KNN returns the k nearest objects by evaluating every object with matrix
// lookups.
func (oi *ObjectIndex) KNN(q model.Location, k int) []index.ObjectResult {
	all := oi.allDistances(q)
	if k < 0 {
		k = 0
	}
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Range returns all objects within distance r of q.
func (oi *ObjectIndex) Range(q model.Location, r float64) []index.ObjectResult {
	all := oi.allDistances(q)
	out := all[:0:0]
	for _, a := range all {
		if a.Dist <= r {
			out = append(out, a)
		}
	}
	return out
}

func (oi *ObjectIndex) allDistances(q model.Location) []index.ObjectResult {
	out := make([]index.ObjectResult, 0, len(oi.objects))
	for id, o := range oi.objects {
		out = append(out, index.ObjectResult{ObjectID: id, Dist: oi.matrix.Distance(q, o)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ObjectID < out[j].ObjectID
	})
	return out
}
