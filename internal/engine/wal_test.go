package engine_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"viptree/internal/engine"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/updatelog"
	"viptree/internal/wal"
)

// walOp records one acknowledged update so a mirror index can replay the
// identical stream (ops are applied serially, so op i carries seq i+1).
type walOp struct {
	op  updatelog.Op
	id  int
	loc model.Location
}

func fastWALOptions(fs *wal.FaultFS) wal.Options {
	return wal.Options{
		FS:            fs,
		Sync:          wal.SyncAlways(),
		MaxRetries:    2,
		RetryBackoff:  200 * time.Microsecond,
		ProbeInterval: 500 * time.Microsecond,
	}
}

// churn applies n random updates through the engine, returning the ops that
// were acknowledged (applied in-memory). Updates rejected because the WAL
// degraded mid-storm are not recorded — they were never applied.
func churn(t *testing.T, eng *engine.Engine, v *model.Venue, n int, seed int64) []walOp {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ops []walOp
	var live []int
	for i := 0; i < n; i++ {
		switch {
		case len(live) == 0 || rng.Intn(3) == 0:
			loc := v.RandomLocation(rng)
			id, err := eng.Insert(loc)
			if err != nil {
				if errors.Is(err, wal.ErrDegradedReadOnly) {
					continue
				}
				t.Fatalf("insert %d: %v", i, err)
			}
			ops = append(ops, walOp{updatelog.OpInsert, id, loc})
			live = append(live, id)
		case rng.Intn(2) == 0:
			j := rng.Intn(len(live))
			loc := v.RandomLocation(rng)
			if err := eng.Move(live[j], loc); err != nil {
				if errors.Is(err, wal.ErrDegradedReadOnly) {
					continue
				}
				t.Fatalf("move %d: %v", i, err)
			}
			ops = append(ops, walOp{updatelog.OpMove, live[j], loc})
		default:
			j := rng.Intn(len(live))
			if err := eng.Delete(live[j]); err != nil {
				if errors.Is(err, wal.ErrDegradedReadOnly) {
					continue
				}
				t.Fatalf("delete %d: %v", i, err)
			}
			ops = append(ops, walOp{updatelog.OpDelete, live[j], model.Location{}})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	return ops
}

// mirrorEngine replays a recorded op stream onto a fresh index and wraps it
// in a non-durable engine: the ground truth a recovered engine must match.
func mirrorEngine(t *testing.T, tree *iptree.Tree, base []model.Location, ops []walOp) *engine.Engine {
	t.Helper()
	oi := tree.IndexObjects(base)
	for i, op := range ops {
		var err error
		switch op.op {
		case updatelog.OpInsert:
			var id int
			id, err = oi.Insert(op.loc)
			if err == nil && id != op.id {
				t.Fatalf("mirror replay %d: insert got id %d, recorded %d", i, id, op.id)
			}
		case updatelog.OpMove:
			err = oi.Move(op.id, op.loc)
		case updatelog.OpDelete:
			err = oi.Delete(op.id)
		}
		if err != nil {
			t.Fatalf("mirror replay %d (%v): %v", i, op.op, err)
		}
	}
	return engine.New(tree, engine.Options{Objects: oi})
}

func probeQueries(v *model.Venue, n int) []engine.Query {
	rng := rand.New(rand.NewSource(99))
	qs := make([]engine.Query, 0, 2*n)
	for i := 0; i < n; i++ {
		qs = append(qs,
			engine.Query{Kind: engine.KindKNN, S: v.RandomLocation(rng), K: 1 + rng.Intn(5)},
			engine.Query{Kind: engine.KindRange, S: v.RandomLocation(rng), Radius: 40 + 80*rng.Float64()},
		)
	}
	return qs
}

// requireEquivalent runs the same probe batch on both engines and requires
// identical results — the recovered index must be indistinguishable from a
// fresh build over the same update stream.
func requireEquivalent(t *testing.T, v *model.Venue, got, want *engine.Engine) {
	t.Helper()
	qs := probeQueries(v, 12)
	gr := withWorkers(got, 1).ExecuteBatch(qs)
	wr := withWorkers(want, 1).ExecuteBatch(qs)
	for i := range qs {
		if !reflect.DeepEqual(gr[i], wr[i]) {
			t.Fatalf("probe %d (%v) diverged:\nrecovered: %+v\nfresh:     %+v", i, qs[i].Kind, gr[i], wr[i])
		}
	}
	if g, w := got.Mutable().(*iptree.ObjectIndex).NumObjects(), want.Mutable().(*iptree.ObjectIndex).NumObjects(); g != w {
		t.Fatalf("recovered index has %d objects, fresh build %d", g, w)
	}
}

func baseObjects(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	objs := make([]model.Location, n)
	for i := range objs {
		objs[i] = v.RandomLocation(rng)
	}
	return objs
}

// TestOpenRecoverRoundTrip is the end-to-end durability path: open a durable
// engine on an empty directory, churn updates, close cleanly, reopen over a
// fresh snapshot-equivalent index, and require the recovered engine to answer
// queries exactly like a fresh build over the same update stream.
func TestOpenRecoverRoundTrip(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	base := baseObjects(v, 30, 1)
	fs := wal.NewFaultFS()

	eng, rep, err := engine.Open(tree, engine.Options{
		Objects:    tree.IndexObjects(base),
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.Head != 0 || rep.TornTail {
		t.Fatalf("fresh open reported recovery work: %+v", rep)
	}
	if h := eng.Health(); !h.Durable || !h.Healthy() {
		t.Fatalf("durable engine unhealthy at open: %+v", h)
	}
	ops := churn(t, eng, v, 120, 2)
	if err := eng.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := eng.WAL().DurableSeq(); got != uint64(len(ops)) {
		t.Fatalf("close left durable seq %d, want %d", got, len(ops))
	}

	eng2, rep2, err := engine.Open(tree, engine.Options{
		Objects:    tree.IndexObjects(base),
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng2.Close()
	if rep2.Replayed != len(ops) || rep2.Head != uint64(len(ops)) {
		t.Fatalf("reopen replayed %d (head %d), want %d", rep2.Replayed, rep2.Head, len(ops))
	}
	if rep2.TornTail {
		t.Fatal("clean close left a torn tail")
	}
	requireEquivalent(t, v, eng2, mirrorEngine(t, tree, base, ops))

	// The recovered engine keeps accepting updates with contiguous seqs.
	if _, err := eng2.Insert(v.RandomLocation(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if got := eng2.ChangeLog().HeadSeq(); got != uint64(len(ops))+1 {
		t.Fatalf("post-recovery insert got seq %d, want %d", got, len(ops)+1)
	}
}

// TestOpenCrashRecoveryProperty crashes the filesystem at random byte
// offsets during an update storm and requires, for every crash point, that
// the recovered engine equals a fresh build over the surviving log prefix
// and that no durably acknowledged update is lost.
func TestOpenCrashRecoveryProperty(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	base := baseObjects(v, 20, 1)
	rng := rand.New(rand.NewSource(0xE16))

	for trial := 0; trial < 12; trial++ {
		fs := wal.NewFaultFS()
		opts := fastWALOptions(fs)
		opts.MaxRetries = 1
		opts.SegmentBytes = int64(512 + rng.Intn(2048))
		eng, _, err := engine.Open(tree, engine.Options{
			Objects:    tree.IndexObjects(base),
			WALDir:     "wal",
			WALOptions: opts,
		})
		if err != nil {
			t.Fatalf("trial %d open: %v", trial, err)
		}
		fs.CrashAfter(int64(1 + rng.Intn(4000)))
		ops := churn(t, eng, v, 80, int64(100+trial))
		durable := eng.WAL().DurableSeq()
		eng.Close() // expected to fail when the crash hit mid-storm

		fs.Revive()
		eng2, rep, err := engine.Open(tree, engine.Options{
			Objects:    tree.IndexObjects(base),
			WALDir:     "wal",
			WALOptions: fastWALOptions(fs),
		})
		if err != nil {
			t.Fatalf("trial %d recovery: %v", trial, err)
		}
		if rep.Head < durable {
			t.Fatalf("trial %d lost acknowledged updates: durable %d, recovered head %d", trial, durable, rep.Head)
		}
		if rep.Head > uint64(len(ops)) {
			t.Fatalf("trial %d recovered %d records but only %d were applied", trial, rep.Head, len(ops))
		}
		requireEquivalent(t, v, eng2, mirrorEngine(t, tree, base, ops[:rep.Head]))
		eng2.Close()
	}
}

// TestEngineDegradedReadOnly injects a persistent fsync failure: updates
// must start returning wal.ErrDegradedReadOnly after the bounded retries,
// reads must keep serving throughout, and clearing the fault must let the
// engine resume accepting updates on its own.
func TestEngineDegradedReadOnly(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	base := baseObjects(v, 25, 1)
	fs := wal.NewFaultFS()

	eng, _, err := engine.Open(tree, engine.Options{
		Objects:    tree.IndexObjects(base),
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if _, err := eng.Insert(v.RandomLocation(rng)); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	fs.FailSync()
	deadline := time.Now().Add(5 * time.Second)
	degraded := false
	for time.Now().Before(deadline) {
		_, err := eng.Insert(v.RandomLocation(rng))
		if errors.Is(err, wal.ErrDegradedReadOnly) {
			degraded = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected insert error: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if !degraded {
		t.Fatal("engine never entered degraded read-only mode under persistent fsync failure")
	}
	h := eng.Health()
	if !h.Durable || h.Healthy() {
		t.Fatalf("degraded engine reports health %+v", h)
	}
	if h.WAL.DegradedSince.IsZero() {
		t.Fatal("degraded health missing DegradedSince")
	}

	// Reads are unharmed while updates are rejected.
	if _, err := eng.KNN(v.RandomLocation(rng), 3); err != nil {
		t.Fatalf("kNN while degraded: %v", err)
	}
	if d := eng.Distance(v.RandomLocation(rng), v.RandomLocation(rng)); d < 0 {
		t.Fatalf("distance while degraded: %v", d)
	}
	if _, err := eng.Range(v.RandomLocation(rng), 60); err != nil {
		t.Fatalf("range while degraded: %v", err)
	}

	fs.ClearFaults()
	recovered := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := eng.Insert(v.RandomLocation(rng)); err == nil {
			recovered = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !recovered {
		t.Fatal("engine did not resume accepting updates after the fault cleared")
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	// Every update the engine acknowledged before and after degradation —
	// including those buffered while the disk was failing — survived.
	head := eng.ChangeLog().HeadSeq()
	if got := eng.WAL().DurableSeq(); got != head {
		t.Fatalf("close left durable %d, head %d", got, head)
	}
}

// TestSnapshotStampedRecovery exports a stamped snapshot mid-stream and
// verifies Open replays only the records past the stamp.
func TestSnapshotStampedRecovery(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	base := baseObjects(v, 20, 1)
	fs := wal.NewFaultFS()

	oi := tree.IndexObjects(base)
	eng, _, err := engine.Open(tree, engine.Options{
		Objects:    oi,
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatal(err)
	}
	pre := churn(t, eng, v, 40, 5)
	st := oi.ExportState()
	if st.Seq != uint64(len(pre)) {
		t.Fatalf("snapshot stamped %d, want %d", st.Seq, len(pre))
	}
	post := churn(t, eng, v, 40, 6)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := iptree.RestoreObjectIndex(tree, st)
	if err != nil {
		t.Fatal(err)
	}
	eng2, rep, err := engine.Open(tree, engine.Options{
		Objects:    restored,
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatalf("open from snapshot: %v", err)
	}
	defer eng2.Close()
	if rep.SnapshotSeq != st.Seq {
		t.Fatalf("reported snapshot seq %d, want %d", rep.SnapshotSeq, st.Seq)
	}
	if rep.Replayed != len(post) {
		t.Fatalf("replayed %d records on top of the snapshot, want %d", rep.Replayed, len(post))
	}
	all := append(append([]walOp(nil), pre...), post...)
	requireEquivalent(t, v, eng2, mirrorEngine(t, tree, base, all))
}

// TestCheckpointGapRejected reclaims WAL segments behind a snapshot, then
// tries to recover with an unstamped (fresh) index: the checkpointed prefix
// is gone, so Open must refuse rather than serve silently incomplete state.
func TestCheckpointGapRejected(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	base := baseObjects(v, 10, 1)
	fs := wal.NewFaultFS()

	oi := tree.IndexObjects(base)
	opts := fastWALOptions(fs)
	opts.SegmentBytes = 1 // rotate on every append so each record seals a segment
	eng, _, err := engine.Open(tree, engine.Options{
		Objects:    oi,
		WALDir:     "wal",
		WALOptions: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	churn(t, eng, v, 12, 9)
	st := oi.ExportState()
	if err := eng.WAL().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WAL().Checkpoint(st.Seq); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh, unstamped index cannot bridge the reclaimed prefix.
	_, _, err = engine.Open(tree, engine.Options{
		Objects:    tree.IndexObjects(base),
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err == nil {
		t.Fatal("open over a checkpointed WAL with an unstamped index succeeded")
	}

	// The stamped snapshot still bridges it.
	restored, err := iptree.RestoreObjectIndex(tree, st)
	if err != nil {
		t.Fatal(err)
	}
	eng2, rep, err := engine.Open(tree, engine.Options{
		Objects:    restored,
		WALDir:     "wal",
		WALOptions: fastWALOptions(fs),
	})
	if err != nil {
		t.Fatalf("open from snapshot after checkpoint: %v", err)
	}
	defer eng2.Close()
	if rep.SnapshotSeq != st.Seq {
		t.Fatalf("snapshot seq %d, want %d", rep.SnapshotSeq, st.Seq)
	}
}

// TestNewPanicsOnWALDir: New silently ignoring a WAL request would skip
// recovery — that misuse must be loud.
func TestNewPanicsOnWALDir(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	defer func() {
		if recover() == nil {
			t.Fatal("New with Options.WALDir did not panic")
		}
	}()
	engine.New(tree, engine.Options{WALDir: "wal", Objects: tree.IndexObjects(nil)})
}

// TestOpenRequiresMutableLoggedObjects: a durable engine needs an object
// querier whose mutations flow through an update log.
func TestOpenRequiresMutableLoggedObjects(t *testing.T) {
	v := testVenue(t)
	tree := iptree.MustBuildIPTree(v, iptree.Options{})
	_, _, err := engine.Open(tree, engine.Options{WALDir: "wal", WALOptions: wal.Options{FS: wal.NewFaultFS()}})
	if err == nil {
		t.Fatal("Open without a mutable logged object querier succeeded")
	}
}
