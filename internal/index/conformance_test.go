// Interface-conformance tests: every index in the repository must implement
// the full capability surface of package index uniformly — Distance, Path,
// KNN, Range, MemoryBytes and Stats — and agree with the D2D ground truth.
package index_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"viptree/internal/baseline/distaware"
	"viptree/internal/baseline/distmatrix"
	"viptree/internal/baseline/gtree"
	"viptree/internal/baseline/road"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/updatelog"
	"viptree/internal/venuegen"
)

// Compile-time conformance assertions for all six indexes.
var (
	_ index.ObjectIndexer = (*iptree.Tree)(nil)
	_ index.ObjectIndexer = (*iptree.VIPTree)(nil)
	_ index.ObjectIndexer = (*distmatrix.Matrix)(nil)
	_ index.ObjectIndexer = (*distaware.Index)(nil)
	_ index.ObjectIndexer = (*gtree.Tree)(nil)
	_ index.ObjectIndexer = (*road.Index)(nil)
)

// Compile-time assertions for the snapshot capability: the two tree indexes
// persist their built state (viptree/internal/snapshot), the baselines do
// not.
var (
	_ index.Snapshotter = (*iptree.Tree)(nil)
	_ index.Snapshotter = (*iptree.VIPTree)(nil)
)

// Compile-time assertion for the mutable-object capability: the shared
// IP-Tree/VIP-Tree object index supports live Insert/Delete/Move.
var _ index.MutableObjectIndexer = (*iptree.ObjectIndex)(nil)

// Compile-time assertion for the change-log capability: the shared object
// index funnels its updates through a single-writer update log.
var _ index.ChangeLogger = (*iptree.ObjectIndex)(nil)

// Compile-time assertions for the batched-distance capability: the two tree
// indexes fan a batch over their workers; the baselines answer per query.
var (
	_ index.DistanceBatcher = (*iptree.Tree)(nil)
	_ index.DistanceBatcher = (*iptree.VIPTree)(nil)
)

// Compile-time assertions for the batched-object capability: the shared
// IP-Tree/VIP-Tree object index answers kNN and range batches with shared
// source climbs and reports its climb cache counters.
var (
	_ index.KNNBatcher         = (*iptree.ObjectIndex)(nil)
	_ index.RangeBatcher       = (*iptree.ObjectIndex)(nil)
	_ index.ClimbCacheReporter = (*iptree.ObjectIndex)(nil)
)

func allIndexers(t *testing.T, v *model.Venue) []index.ObjectIndexer {
	t.Helper()
	ip, err := iptree.BuildIPTree(v, iptree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []index.ObjectIndexer{
		ip,
		iptree.NewVIPTree(iptree.MustBuildIPTree(v, iptree.Options{})),
		distmatrix.Build(v, true),
		distaware.New(v),
		gtree.Build(v, gtree.Options{}),
		road.Build(v, road.Options{}),
	}
}

// TestFullCapabilityConformance drives the entire interface of every index
// and of its object querier and checks the answers against the exact D2D
// ground truth.
func TestFullCapabilityConformance(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "conformance", Floors: 2, RoomsPerHallway: 10, Seed: 3,
	})
	rng := rand.New(rand.NewSource(1))
	objects := make([]model.Location, 20)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	type pair struct{ s, d model.Location }
	pairs := make([]pair, 25)
	for i := range pairs {
		pairs[i] = pair{v.RandomLocation(rng), v.RandomLocation(rng)}
	}
	points := make([]model.Location, 10)
	for i := range points {
		points[i] = v.RandomLocation(rng)
	}

	for _, ixr := range allIndexers(t, v) {
		oq := ixr.NewObjectQuerier(objects)
		t.Run(ixr.Name(), func(t *testing.T) {
			if ixr.Name() == "" {
				t.Error("empty Name()")
			}
			if ixr.MemoryBytes() <= 0 {
				t.Errorf("MemoryBytes() = %d, want > 0", ixr.MemoryBytes())
			}
			st := ixr.Stats()
			if st.Name != ixr.Name() {
				t.Errorf("Stats().Name = %q, want %q", st.Name, ixr.Name())
			}
			if st.MemoryBytes != ixr.MemoryBytes() {
				t.Errorf("Stats().MemoryBytes = %d, want %d", st.MemoryBytes, ixr.MemoryBytes())
			}
			for _, p := range pairs {
				want := v.D2D().LocationDist(p.s, p.d)
				if got := ixr.Distance(p.s, p.d); !approxEqual(got, want) {
					t.Fatalf("Distance(%v, %v) = %v, want %v", p.s, p.d, got, want)
				}
				pd, _ := ixr.Path(p.s, p.d)
				if !approxEqual(pd, want) {
					t.Fatalf("Path(%v, %v) dist = %v, want %v", p.s, p.d, pd, want)
				}
			}
			for _, q := range points {
				knn := oq.KNN(q, 5)
				if len(knn) == 0 {
					t.Fatalf("KNN(%v, 5) returned no results", q)
				}
				for i := 1; i < len(knn); i++ {
					if knn[i].Dist < knn[i-1].Dist {
						t.Fatalf("KNN results not ascending: %v", knn)
					}
				}
				within := oq.Range(q, 60)
				for _, r := range within {
					if r.Dist > 60+1e-6 {
						t.Fatalf("Range(%v, 60) returned object at distance %v", q, r.Dist)
					}
				}
			}
		})
	}
}

// TestSnapshotterConformance pins down which indexes implement the snapshot
// capability: exactly the IP-Tree and VIP-Tree. Adding the capability to a
// baseline (or losing it on a tree) must be a deliberate change to this
// table, because the snapshot container dispatches on it. For implementers,
// the kind string must be non-empty and the encoded payload non-trivial.
func TestSnapshotterConformance(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "snapshotter", Floors: 2, RoomsPerHallway: 8, Seed: 4,
	})
	wantSnapshotter := map[string]bool{
		"IP-Tree":  true,
		"VIP-Tree": true,
		"DistMx":   false,
		"DistAw":   false,
		"G-tree":   false,
		"ROAD":     false,
	}
	seen := map[string]bool{}
	for _, ixr := range allIndexers(t, v) {
		name := ixr.Name()
		seen[name] = true
		want, known := wantSnapshotter[name]
		if !known {
			t.Errorf("index %q missing from the snapshotter conformance table", name)
			continue
		}
		snap, got := ixr.(index.Snapshotter)
		if got != want {
			t.Errorf("index %q: implements Snapshotter = %v, want %v", name, got, want)
			continue
		}
		if !got {
			continue
		}
		if snap.SnapshotKind() == "" {
			t.Errorf("index %q: empty SnapshotKind()", name)
		}
		var buf bytes.Buffer
		if err := snap.EncodeSnapshot(&buf); err != nil {
			t.Errorf("index %q: EncodeSnapshot: %v", name, err)
		} else if buf.Len() == 0 {
			t.Errorf("index %q: EncodeSnapshot wrote no payload", name)
		}
	}
	for name := range wantSnapshotter {
		if !seen[name] {
			t.Errorf("conformance table lists %q but no index reported that name", name)
		}
	}
}

// TestMutableObjectIndexerConformance pins down which object queriers
// implement the live-update capability: exactly those of the IP-Tree and
// VIP-Tree. The table mirrors the paper's claim — object updates on the
// proposed index touch only the affected leaf, while the baselines would
// need a rebuild — so adding or losing the capability must be a deliberate
// change here. For implementers, the three updates must take effect and be
// visible to subsequent queries.
func TestMutableObjectIndexerConformance(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "mutable", Floors: 2, RoomsPerHallway: 8, Seed: 5,
	})
	wantMutable := map[string]bool{
		"IP-Tree":  true,
		"VIP-Tree": true,
		"DistMx":   false,
		"DistAw":   false,
		"G-tree":   false,
		"ROAD":     false,
	}
	rng := rand.New(rand.NewSource(2))
	objects := make([]model.Location, 10)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	seen := map[string]bool{}
	for _, ixr := range allIndexers(t, v) {
		name := ixr.Name()
		seen[name] = true
		want, known := wantMutable[name]
		if !known {
			t.Errorf("index %q missing from the mutable conformance table", name)
			continue
		}
		oq := ixr.NewObjectQuerier(objects)
		mut, got := oq.(index.MutableObjectIndexer)
		if got != want {
			t.Errorf("index %q: object querier implements MutableObjectIndexer = %v, want %v", name, got, want)
			continue
		}
		if !got {
			continue
		}
		if n := mut.NumObjects(); n != len(objects) {
			t.Errorf("index %q: NumObjects() = %d, want %d", name, n, len(objects))
		}
		// Insert an object at a query point: it must become the 1-NN.
		q := v.RandomLocation(rng)
		id, err := mut.Insert(q)
		if err != nil {
			t.Errorf("index %q: Insert: %v", name, err)
			continue
		}
		if knn := mut.KNN(q, 1); len(knn) != 1 || knn[0].ObjectID != id {
			t.Errorf("index %q: 1-NN after Insert = %v, want object %d", name, knn, id)
		}
		// Move it far away and back: queries must track the location.
		if err := mut.Move(id, v.RandomLocation(rng)); err != nil {
			t.Errorf("index %q: Move: %v", name, err)
		}
		if err := mut.Move(id, q); err != nil {
			t.Errorf("index %q: Move back: %v", name, err)
		}
		if knn := mut.KNN(q, 1); len(knn) != 1 || knn[0].ObjectID != id {
			t.Errorf("index %q: 1-NN after Move = %v, want object %d", name, knn, id)
		}
		// Delete it: it must disappear from results.
		if err := mut.Delete(id); err != nil {
			t.Errorf("index %q: Delete: %v", name, err)
		}
		for _, r := range mut.KNN(q, len(objects)+1) {
			if r.ObjectID == id {
				t.Errorf("index %q: deleted object %d still in kNN results", name, id)
			}
		}
		if n := mut.NumObjects(); n != len(objects) {
			t.Errorf("index %q: NumObjects() after insert+delete = %d, want %d", name, n, len(objects))
		}
	}
	for name := range wantMutable {
		if !seen[name] {
			t.Errorf("mutable conformance table lists %q but no index reported that name", name)
		}
	}
}

// TestChangeLoggerConformance pins down which object queriers route their
// mutations through an update log: exactly those of the IP-Tree and
// VIP-Tree (the same set that is mutable at all — a mutable querier without
// a log could not be made durable by a WAL, so the capability must track
// MutableObjectIndexer deliberately). For implementers, applied updates
// must advance the log head and reach the log's follower.
func TestChangeLoggerConformance(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "changelog", Floors: 2, RoomsPerHallway: 8, Seed: 6,
	})
	wantLogged := map[string]bool{
		"IP-Tree":  true,
		"VIP-Tree": true,
		"DistMx":   false,
		"DistAw":   false,
		"G-tree":   false,
		"ROAD":     false,
	}
	rng := rand.New(rand.NewSource(7))
	objects := make([]model.Location, 6)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	seen := map[string]bool{}
	for _, ixr := range allIndexers(t, v) {
		name := ixr.Name()
		seen[name] = true
		want, known := wantLogged[name]
		if !known {
			t.Errorf("index %q missing from the change-log conformance table", name)
			continue
		}
		oq := ixr.NewObjectQuerier(objects)
		logged, got := oq.(index.ChangeLogger)
		if got != want {
			t.Errorf("index %q: object querier implements ChangeLogger = %v, want %v", name, got, want)
			continue
		}
		if !got {
			continue
		}
		log := logged.ChangeLog()
		if log == nil {
			t.Errorf("index %q: ChangeLog() returned nil", name)
			continue
		}
		if head := log.HeadSeq(); head != 0 {
			t.Errorf("index %q: fresh log head = %d, want 0", name, head)
		}
		var recs []updatelog.Record
		if err := log.SetFollower(func(applied []updatelog.Record) {
			recs = append(recs, applied...)
		}); err != nil {
			t.Errorf("index %q: SetFollower: %v", name, err)
			continue
		}
		id, err := logged.Insert(v.RandomLocation(rng))
		if err != nil {
			t.Errorf("index %q: Insert: %v", name, err)
			continue
		}
		if err := logged.Delete(id); err != nil {
			t.Errorf("index %q: Delete: %v", name, err)
		}
		if head := log.HeadSeq(); head != 2 {
			t.Errorf("index %q: log head after 2 updates = %d, want 2", name, head)
		}
		if pub := log.PublishedSeq(); pub != log.HeadSeq() {
			t.Errorf("index %q: published seq %d lags head %d at quiescence", name, pub, log.HeadSeq())
		}
		if len(recs) != 2 {
			t.Errorf("index %q: follower got %d records, want 2", name, len(recs))
		}
	}
	for name := range wantLogged {
		if !seen[name] {
			t.Errorf("change-log conformance table lists %q but no index reported that name", name)
		}
	}
}

// TestObjectBatcherConformance pins down which object queriers implement
// the batched kNN/range capability: exactly those of the IP-Tree and
// VIP-Tree (the indexes whose per-source climbs a batch can share). For
// implementers, the batched answers must match the per-query ones exactly,
// and the querier's climb cache must have counted the batches' lookups.
func TestObjectBatcherConformance(t *testing.T) {
	v := venuegen.MustBuilding(venuegen.BuildingConfig{
		Name: "objbatch", Floors: 2, RoomsPerHallway: 8, Seed: 8,
	})
	wantBatcher := map[string]bool{
		"IP-Tree":  true,
		"VIP-Tree": true,
		"DistMx":   false,
		"DistAw":   false,
		"G-tree":   false,
		"ROAD":     false,
	}
	rng := rand.New(rand.NewSource(9))
	objects := make([]model.Location, 15)
	for i := range objects {
		objects[i] = v.RandomLocation(rng)
	}
	points := make([]model.Location, 8)
	for i := range points {
		points[i] = v.RandomLocation(rng)
	}
	seen := map[string]bool{}
	for _, ixr := range allIndexers(t, v) {
		name := ixr.Name()
		seen[name] = true
		want, known := wantBatcher[name]
		if !known {
			t.Errorf("index %q missing from the object-batcher conformance table", name)
			continue
		}
		oq := ixr.NewObjectQuerier(objects)
		kb, gotKNN := oq.(index.KNNBatcher)
		rb, gotRange := oq.(index.RangeBatcher)
		if gotKNN != want || gotRange != want {
			t.Errorf("index %q: implements KNNBatcher/RangeBatcher = %v/%v, want %v", name, gotKNN, gotRange, want)
			continue
		}
		if !want {
			continue
		}
		knns := make([]index.KNNQuery, len(points))
		ranges := make([]index.RangeQuery, len(points))
		for i, p := range points {
			knns[i] = index.KNNQuery{Q: p, K: 4}
			ranges[i] = index.RangeQuery{Q: p, R: 80}
		}
		knnOut := make([][]index.ObjectResult, len(points))
		rangeOut := make([][]index.ObjectResult, len(points))
		kb.KNNBatch(knns, knnOut, 2)
		rb.RangeBatch(ranges, rangeOut, 2)
		for i, p := range points {
			if got, want := knnOut[i], oq.KNN(p, 4); !objectResultsEqual(got, want) {
				t.Errorf("index %q: KNNBatch[%d] = %v, want %v", name, i, got, want)
			}
			if got, want := rangeOut[i], oq.Range(p, 80); !objectResultsEqual(got, want) {
				t.Errorf("index %q: RangeBatch[%d] = %v, want %v", name, i, got, want)
			}
		}
		rep, ok := oq.(index.ClimbCacheReporter)
		if !ok {
			t.Errorf("index %q: object querier does not report climb cache counters", name)
		} else if cc := rep.ClimbCacheStats(); cc.Hits+cc.Misses == 0 {
			t.Errorf("index %q: climb cache counted no lookups after two batches: %+v", name, cc)
		}
	}
	for name := range wantBatcher {
		if !seen[name] {
			t.Errorf("object-batcher conformance table lists %q but no index reported that name", name)
		}
	}
}

func objectResultsEqual(a, b []index.ObjectResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func approxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsInf(a, 1) != math.IsInf(b, 1) {
		return false
	}
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(b))
}
