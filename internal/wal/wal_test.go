package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"viptree/internal/geom"
	"viptree/internal/model"
	"viptree/internal/updatelog"
)

// recApplier is a minimal updatelog.Applier for WAL tests: it assigns
// insert IDs from a counter and keeps every applied record so tests can
// compare the on-disk log against ground truth.
type recApplier struct {
	nextID int
	mu     sync.Mutex
	seen   []updatelog.Record
}

func (a *recApplier) ApplyUpdate(r *updatelog.Record) error {
	if r.Op == updatelog.OpInsert {
		r.ID = a.nextID
		a.nextID++
	}
	a.mu.Lock()
	a.seen = append(a.seen, *r)
	a.mu.Unlock()
	return nil
}

func (a *recApplier) PublishEpoch(uint64) {}

func (a *recApplier) applied() []updatelog.Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]updatelog.Record, len(a.seen))
	copy(out, a.seen)
	return out
}

func testLoc(i int) model.Location {
	return model.Location{
		Partition: model.PartitionID(i % 7),
		Point:     geom.Point{X: float64(i), Y: float64((i * 3) % 101), Floor: i % 3},
	}
}

// submitMixed drives n updates through the log: mostly inserts, with
// deletes and moves mixed in once objects exist.
func submitMixed(t testing.TB, log *updatelog.Log, n int) {
	t.Helper()
	var ids []int
	for i := 0; i < n; i++ {
		switch {
		case len(ids) > 4 && i%5 == 3:
			id := ids[i%len(ids)]
			if _, _, err := log.Submit(updatelog.OpMove, id, testLoc(i+1000)); err != nil {
				t.Fatalf("move: %v", err)
			}
		case len(ids) > 8 && i%11 == 7:
			id := ids[0]
			ids = ids[1:]
			if _, _, err := log.Submit(updatelog.OpDelete, id, model.Location{}); err != nil {
				t.Fatalf("delete: %v", err)
			}
		default:
			id, _, err := log.Submit(updatelog.OpInsert, 0, testLoc(i))
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			ids = append(ids, id)
		}
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// openWAL opens a WAL over fs with fast test timings.
func openWAL(t testing.TB, fs FS, opt Options) *WAL {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = "waltest"
	}
	opt.FS = fs
	if opt.MaxRetries == 0 {
		opt.MaxRetries = 2
	}
	if opt.RetryBackoff == 0 {
		opt.RetryBackoff = 200 * time.Microsecond
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = 500 * time.Microsecond
	}
	w, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func TestOpenEmptyDir(t *testing.T) {
	w := openWAL(t, NewFaultFS(), Options{})
	rec := w.Recovery()
	if len(rec.Records) != 0 || rec.Base != 0 || rec.Head != 0 || rec.TornTail {
		t.Fatalf("unexpected recovery from empty dir: %+v", rec)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncAlways()})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 100)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got, want := w.DurableSeq(), log.HeadSeq(); got != want {
		t.Fatalf("durable %d after flush, want head %d", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openWAL(t, fs, Options{})
	rec := w2.Recovery()
	if rec.TornTail {
		t.Fatalf("clean shutdown recovered a torn tail: %+v", rec)
	}
	if !reflect.DeepEqual(rec.Records, app.applied()) {
		t.Fatalf("recovered %d records != applied %d records", len(rec.Records), len(app.applied()))
	}
	if rec.Head != log.HeadSeq() {
		t.Fatalf("recovered head %d, want %d", rec.Head, log.HeadSeq())
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 200)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := w2.Recovery()
	if !reflect.DeepEqual(rec.Records, app.applied()) {
		t.Fatalf("recovered %d records != applied %d", len(rec.Records), len(app.applied()))
	}
	if rec.Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", rec.Segments)
	}
}

func TestRotationAndHealthAccounting(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{SegmentBytes: 256})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 150)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	h := w.Health()
	if h.State != StateHealthy {
		t.Fatalf("state %v, want healthy", h.State)
	}
	if h.Segments < 2 {
		t.Fatalf("expected >= 2 segments at 256B threshold, got %d", h.Segments)
	}
	if h.DurableSeq != log.HeadSeq() || h.AppendedSeq != log.HeadSeq() {
		t.Fatalf("watermarks %d/%d, want %d", h.DurableSeq, h.AppendedSeq, log.HeadSeq())
	}
	if h.SizeBytes == 0 {
		t.Fatalf("zero on-disk size after 150 records")
	}
	w.Close()

	w2 := openWAL(t, fs, Options{})
	if !reflect.DeepEqual(w2.Recovery().Records, app.applied()) {
		t.Fatalf("multi-segment recovery mismatch")
	}
}

// TestCheckpoint exercises segment reclamation: with a 1-byte threshold and
// one record flushed at a time, every record seals its own segment, so the
// checkpoint boundary is deterministic.
func TestCheckpoint(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{SegmentBytes: 1})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := log.Submit(updatelog.OpInsert, 0, testLoc(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	removed, err := w.Checkpoint(5)
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if removed != 5 {
		t.Fatalf("removed %d segments, want 5", removed)
	}
	// Checkpointing again at the same seq is a no-op.
	if again, _ := w.Checkpoint(5); again != 0 {
		t.Fatalf("second checkpoint removed %d segments, want 0", again)
	}
	w.Close()

	w2 := openWAL(t, fs, Options{})
	rec := w2.Recovery()
	if rec.Base != 5 || rec.Head != 10 {
		t.Fatalf("recovered base/head %d/%d, want 5/10", rec.Base, rec.Head)
	}
	if !reflect.DeepEqual(rec.Records, app.applied()[5:]) {
		t.Fatalf("post-checkpoint recovery is not the [6,10] suffix")
	}
}

func TestTornTailTruncated(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 20)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Cut the last frame short: a classic torn write.
	name := join("waltest", segmentName(1))
	data, ok := fs.Contents(name)
	if !ok {
		t.Fatalf("segment %s missing", name)
	}
	fs.WriteFile(name, data[:len(data)-5])

	w2 := openWAL(t, fs, Options{})
	rec := w2.Recovery()
	if !rec.TornTail {
		t.Fatalf("expected TornTail, got %+v", rec)
	}
	applied := app.applied()
	if !reflect.DeepEqual(rec.Records, applied[:len(applied)-1]) {
		t.Fatalf("torn-tail recovery kept %d records, want the %d-record prefix", len(rec.Records), len(applied)-1)
	}
	if rec.DroppedBytes == 0 {
		t.Fatalf("DroppedBytes not reported")
	}
	w2.Close()

	// The truncation repaired the log in place: a second recovery is
	// clean and returns the identical prefix.
	w3 := openWAL(t, fs, Options{})
	rec3 := w3.Recovery()
	if rec3.TornTail {
		t.Fatalf("second recovery still torn: %+v", rec3)
	}
	if !reflect.DeepEqual(rec3.Records, rec.Records) {
		t.Fatalf("recovery is not idempotent")
	}
}

func TestTornTailGarbageAppended(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	name := join("waltest", segmentName(1))
	data, _ := fs.Contents(name)
	fs.WriteFile(name, append(data, 0xDE, 0xAD, 0xBE))

	w2 := openWAL(t, fs, Options{})
	rec := w2.Recovery()
	if !rec.TornTail {
		t.Fatalf("expected TornTail for trailing garbage")
	}
	if !reflect.DeepEqual(rec.Records, app.applied()) {
		t.Fatalf("trailing garbage dropped intact records")
	}
}

func TestMidLogCorruptionRejected(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 50)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip a payload byte in an early frame: the CRC fails mid-log, which
	// recovery must refuse to repair (truncating would drop durable data).
	name := join("waltest", segmentName(1))
	data, _ := fs.Contents(name)
	data[len(segMagic)+frameHeader+3] ^= 0xFF
	fs.WriteFile(name, data)

	_, err := Open(Options{Dir: "waltest", FS: fs})
	if err == nil {
		t.Fatalf("open succeeded over mid-log corruption")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v does not wrap ErrCorrupt", err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *CorruptionError", err)
	}
	if ce.Segment != segmentName(1) {
		t.Fatalf("corruption attributed to %q, want %q", ce.Segment, segmentName(1))
	}
}

func TestSegmentGapRejected(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{SegmentBytes: 1})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, _, err := log.Submit(updatelog.OpInsert, 0, testLoc(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	w.Close()

	// Deleting a middle segment leaves a sequence gap.
	if err := fs.Remove(join("waltest", segmentName(3))); err != nil {
		t.Fatalf("remove: %v", err)
	}
	_, err := Open(Options{Dir: "waltest", FS: fs})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap not rejected as corruption: %v", err)
	}
}

// TestTornFrameInNonLastSegmentRejected: damage that would be a torn tail
// in the last segment is mid-log corruption when another segment follows.
func TestTornFrameInNonLastSegmentRejected(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{SegmentBytes: 1})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := log.Submit(updatelog.OpInsert, 0, testLoc(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	w.Close()

	name := join("waltest", segmentName(2))
	data, _ := fs.Contents(name)
	fs.WriteFile(name, data[:len(data)-4])

	_, err := Open(Options{Dir: "waltest", FS: fs})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn frame in non-last segment not rejected: %v", err)
	}
}

func TestShortWriteRolledBackAndRetried(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncAlways()})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 10)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// The next append tears after 7 bytes; the WAL must truncate the
	// partial frame and rewrite, so every record appears exactly once.
	fs.ShortWriteOnce(7)
	submitMixed(t, log, 10)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush after short write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openWAL(t, fs, Options{})
	rec := w2.Recovery()
	if rec.TornTail {
		t.Fatalf("short write left a torn tail after rollback")
	}
	if !reflect.DeepEqual(rec.Records, app.applied()) {
		t.Fatalf("short write dropped or duplicated records: recovered %d, applied %d", len(rec.Records), len(app.applied()))
	}
}

func TestWriteFailureDegradesThenRecovers(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncAlways(), MaxRetries: 2})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 5)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	fs.FailWrites()
	submitMixed(t, log, 5)
	waitUntil(t, 5*time.Second, "degraded state", func() bool {
		return w.Health().State == StateDegraded
	})
	if w.Healthy() {
		t.Fatalf("Healthy() true while degraded")
	}
	h := w.Health()
	if h.Err == nil || !errors.Is(h.Err, ErrInjectedWriteFailure) {
		t.Fatalf("health err %v, want injected write failure", h.Err)
	}
	if h.DegradedSince.IsZero() {
		t.Fatalf("DegradedSince not set")
	}

	// Clearing the fault lets a probe succeed; the backlog drains and the
	// WAL heals itself.
	fs.ClearFaults()
	waitUntil(t, 5*time.Second, "recovery probe", func() bool {
		return w.Health().State == StateHealthy && w.DurableSeq() == log.HeadSeq()
	})
	if err := w.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	w2 := openWAL(t, fs, Options{})
	if !reflect.DeepEqual(w2.Recovery().Records, app.applied()) {
		t.Fatalf("records lost across degraded episode")
	}
}

func TestSyncFailureDegradesThenRecovers(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncAlways(), MaxRetries: 2})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 5)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	fs.FailSync()
	submitMixed(t, log, 5)
	waitUntil(t, 5*time.Second, "degraded state", func() bool {
		return w.Health().State == StateDegraded
	})
	if errors.Is(w.Health().Err, ErrInjectedSyncFailure) == false {
		t.Fatalf("health err %v, want injected sync failure", w.Health().Err)
	}
	// While degraded, a Flush must fail fast with ErrDegradedReadOnly
	// rather than hang.
	if err := w.Flush(); !errors.Is(err, ErrDegradedReadOnly) {
		t.Fatalf("Flush while degraded: %v, want ErrDegradedReadOnly", err)
	}

	fs.ClearFaults()
	waitUntil(t, 5*time.Second, "recovery probe", func() bool {
		return w.Health().State == StateHealthy && w.DurableSeq() == log.HeadSeq()
	})
	if err := w.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}
}

func TestFlushForcesSyncUnderOnRotate(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncOnRotate()})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 25)
	// No rotation happened (default 4MiB threshold), so only Flush can
	// make these durable.
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.DurableSeq() != log.HeadSeq() {
		t.Fatalf("durable %d after forced flush, want %d", w.DurableSeq(), log.HeadSeq())
	}
	w.Close()
}

func TestIntervalSyncAdvancesDurable(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncInterval(time.Millisecond)})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log, 25)
	waitUntil(t, 5*time.Second, "interval sync", func() bool {
		return w.DurableSeq() == log.HeadSeq()
	})
	w.Close()
}

func TestWaitDurableOnClosed(t *testing.T) {
	w := openWAL(t, NewFaultFS(), Options{})
	w.Close()
	if err := w.WaitDurable(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable on closed WAL: %v, want ErrClosed", err)
	}
	if _, err := w.Checkpoint(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint on closed WAL: %v, want ErrClosed", err)
	}
}

// TestFollowSnapshotAhead: the index was restored from a snapshot stamped
// past the WAL's tail, so the old segments are fully covered and must be
// dropped; the WAL restarts at the snapshot seq.
func TestFollowSnapshotAhead(t *testing.T) {
	fs := NewFaultFS()
	log1 := updatelog.New(&recApplier{}, 0)
	w := openWAL(t, fs, Options{})
	if err := w.Follow(log1); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log1, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Restore "from a snapshot" at seq 25 without replaying the WAL.
	app := &recApplier{}
	log2 := updatelog.New(app, 25)
	w2 := openWAL(t, fs, Options{})
	if err := w2.Follow(log2); err != nil {
		t.Fatalf("Follow with snapshot ahead: %v", err)
	}
	submitMixed(t, log2, 5)
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w3 := openWAL(t, fs, Options{})
	rec := w3.Recovery()
	if rec.Base != 25 || rec.Head != 30 {
		t.Fatalf("base/head %d/%d after snapshot-ahead restart, want 25/30", rec.Base, rec.Head)
	}
	if !reflect.DeepEqual(rec.Records, app.applied()) {
		t.Fatalf("snapshot-ahead restart lost records")
	}
}

// TestFollowLogBehind: attaching to a log whose head predates the WAL's
// records means the recovered suffix was not replayed — an error, not
// silent data loss.
func TestFollowLogBehind(t *testing.T) {
	fs := NewFaultFS()
	log1 := updatelog.New(&recApplier{}, 0)
	w := openWAL(t, fs, Options{})
	if err := w.Follow(log1); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	submitMixed(t, log1, 10)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openWAL(t, fs, Options{})
	if err := w2.Follow(updatelog.New(&recApplier{}, 0)); err == nil {
		t.Fatalf("Follow accepted a log behind the WAL head")
	}
}

// TestCrashRecoveryProperty is the central crash-safety test: 100 crashes
// at randomized byte offsets during a concurrent update storm with
// fsync=Always. After each crash the surviving bytes are recovered and
// must be exactly a prefix of the applied updates — no acknowledged
// (durable-watermark) update lost, no reordering, no invention.
func TestCrashRecoveryProperty(t *testing.T) {
	const (
		crashes = 100
		storm   = 120
	)
	rng := rand.New(rand.NewSource(0x5EED))
	for i := 0; i < crashes; i++ {
		i := i
		t.Run(fmt.Sprintf("crash%02d", i), func(t *testing.T) {
			fs := NewFaultFS()
			app := &recApplier{}
			log := updatelog.New(app, 0)
			w := openWAL(t, fs, Options{
				Sync:         SyncAlways(),
				SegmentBytes: int64(256 + rng.Intn(2048)),
				MaxRetries:   1,
			})
			if err := w.Follow(log); err != nil {
				t.Fatalf("Follow: %v", err)
			}
			// Arm the crash somewhere inside the byte range the storm will
			// write (~45B/record incl. framing).
			fs.CrashAfter(int64(rng.Intn(storm * 45)))

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < storm/4; k++ {
						log.Submit(updatelog.OpInsert, 0, testLoc(g*1000+k))
					}
				}()
			}
			wg.Wait()
			durable := w.DurableSeq()
			w.Close() // returns an error when the crash hit mid-flush; expected

			if !fs.Crashed() {
				// The random offset landed beyond what the storm wrote;
				// still a valid (clean) recovery case.
				durable = w.DurableSeq()
			}
			fs.Revive()

			w2, err := Open(Options{Dir: "waltest", FS: fs})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			rec := w2.Recovery()
			applied := app.applied()
			if uint64(len(rec.Records)) < durable {
				t.Fatalf("lost acknowledged updates: durable watermark %d, recovered %d", durable, len(rec.Records))
			}
			if len(rec.Records) > len(applied) {
				t.Fatalf("recovered %d records, only %d were applied", len(rec.Records), len(applied))
			}
			for k := range rec.Records {
				if rec.Records[k] != applied[k] {
					t.Fatalf("recovered records diverge at %d: got %+v, want %+v (recovered %d, applied %d)",
						k, rec.Records[k], applied[k], len(rec.Records), len(applied))
				}
			}
			// Recovery repaired the log: a second scan is clean and
			// identical.
			w3, err := Open(Options{Dir: "waltest", FS: fs})
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if w3.Recovery().TornTail {
				t.Fatalf("second recovery still torn")
			}
			if !reflect.DeepEqual(w3.Recovery().Records, rec.Records) {
				t.Fatalf("recovery not idempotent")
			}
		})
	}
}

// TestResumeAfterCrashRecovery: after a crash and recovery, a new WAL over
// the same directory keeps appending where the survivors end, and the next
// recovery sees one contiguous log.
func TestResumeAfterCrashRecovery(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncAlways(), SegmentBytes: 512, MaxRetries: 1})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	fs.CrashAfter(1500)
	submitMixed(t, log, 80)
	w.Close()
	if !fs.Crashed() {
		t.Fatalf("crash point not reached")
	}
	fs.Revive()

	w2 := openWAL(t, fs, Options{Sync: SyncAlways(), SegmentBytes: 512})
	rec := w2.Recovery()
	survivors := len(rec.Records)

	// Resume: a fresh log seeded with the survivors (as the engine does
	// after replay) and more traffic on top.
	app2 := &recApplier{}
	log2 := updatelog.New(app2, rec.Head)
	if err := w2.Follow(log2); err != nil {
		t.Fatalf("Follow after recovery: %v", err)
	}
	submitMixed(t, log2, 40)
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w3 := openWAL(t, fs, Options{})
	rec3 := w3.Recovery()
	if got, want := len(rec3.Records), survivors+40; got != want {
		t.Fatalf("final log holds %d records, want %d", got, want)
	}
	if !reflect.DeepEqual(rec3.Records[:survivors], rec.Records) {
		t.Fatalf("resumed WAL disturbed the recovered prefix")
	}
	if !reflect.DeepEqual(rec3.Records[survivors:], app2.applied()) {
		t.Fatalf("resumed WAL lost post-recovery records")
	}
}

// TestConcurrentHealthReaders: watermark/health readers race the appender;
// run under -race this guards the locking discipline.
func TestConcurrentHealthReaders(t *testing.T) {
	fs := NewFaultFS()
	app := &recApplier{}
	log := updatelog.New(app, 0)
	w := openWAL(t, fs, Options{Sync: SyncInterval(time.Millisecond), SegmentBytes: 512})
	if err := w.Follow(log); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = w.Health()
					_ = w.DurableSeq()
					_ = w.Healthy()
				}
			}
		}()
	}
	submitMixed(t, log, 300)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
