package engine

import (
	"fmt"
	"time"

	"viptree/internal/index"
	"viptree/internal/updatelog"
	"viptree/internal/wal"
)

// WALRecovery reports what Open reconstructed from the write-ahead log.
type WALRecovery struct {
	// SnapshotSeq is the update-log sequence the restored index already
	// covered (the snapshot stamp; 0 for a fresh or unstamped index).
	SnapshotSeq uint64
	// Head is the last sequence number in the WAL after recovery.
	Head uint64
	// Segments is the number of on-disk segment files scanned.
	Segments int
	// Scanned is the number of intact records found in the log.
	Scanned int
	// Replayed is the number of records applied on top of the snapshot
	// (those with seq in (SnapshotSeq, Head]).
	Replayed int
	// TornTail reports that the scan truncated a torn tail — the expected
	// signature of a crash mid-append. DroppedBytes is how much was cut.
	TornTail     bool
	DroppedBytes int64
	// ScanElapsed and ReplayElapsed split the recovery wall-clock time
	// into the segment scan and the index replay.
	ScanElapsed   time.Duration
	ReplayElapsed time.Duration
}

// Open builds an engine whose object updates are durably logged to a
// write-ahead log under opts.WALDir, recovering state left by a previous
// run first: it scans the WAL, replays every record past the restored
// index's sequence stamp onto the index, then attaches the WAL to the
// index's update log so all further updates are persisted per the
// configured sync policy. The returned WALRecovery reports what was
// recovered and how long it took.
//
// The object querier must route its mutations through an update log
// (index.ChangeLogger): the WAL becomes that log's follower and persists
// every batch it applies. Mid-log corruption, a gap between the snapshot
// stamp and the WAL's first retained record, or a replay mismatch fail the
// open rather than serve silently incomplete state.
//
// While the WAL is degraded (persistent append/fsync failures), update
// kinds return wal.ErrDegradedReadOnly and reads keep serving; see
// Engine.Health. Close the engine to flush and release the WAL.
func Open(idx index.Index, opts Options) (*Engine, *WALRecovery, error) {
	if opts.WALDir == "" {
		return nil, nil, fmt.Errorf("engine: Open requires Options.WALDir (use New for a non-durable engine)")
	}
	logged, _ := opts.Objects.(index.ChangeLogger)
	mutable, _ := opts.Objects.(index.MutableObjectIndexer)
	if logged == nil || mutable == nil {
		return nil, nil, fmt.Errorf("engine: Options.WALDir requires a mutable object querier with an update log (index.ChangeLogger)")
	}
	log := logged.ChangeLog()
	snapSeq := log.HeadSeq()

	wopts := opts.WALOptions
	wopts.Dir = opts.WALDir
	w, err := wal.Open(wopts)
	if err != nil {
		return nil, nil, err
	}
	rec := w.Recovery()
	report := &WALRecovery{
		SnapshotSeq:  snapSeq,
		Head:         rec.Head,
		Segments:     rec.Segments,
		Scanned:      len(rec.Records),
		TornTail:     rec.TornTail,
		DroppedBytes: rec.DroppedBytes,
		ScanElapsed:  rec.Elapsed,
	}
	if rec.Head > snapSeq {
		if rec.Base > snapSeq {
			w.Close()
			return nil, nil, fmt.Errorf("engine: wal retains seqs (%d,%d] but the index only covers %d: the checkpointed prefix is gone and no snapshot bridges the gap",
				rec.Base, rec.Head, snapSeq)
		}
		start := time.Now()
		for _, r := range rec.Records[snapSeq-rec.Base:] {
			if err := replayRecord(mutable, r); err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("engine: wal replay at seq %d: %w", r.Seq, err)
			}
			if got := log.HeadSeq(); got != r.Seq {
				w.Close()
				return nil, nil, fmt.Errorf("engine: wal replay diverged: index at seq %d after applying record %d", got, r.Seq)
			}
			report.Replayed++
		}
		report.ReplayElapsed = time.Since(start)
	}
	if err := w.Follow(log); err != nil {
		w.Close()
		return nil, nil, err
	}
	if head := log.HeadSeq(); head > report.Head {
		// Snapshot newer than the WAL: Follow restarted the log there.
		report.Head = head
	}

	scrubbed := opts
	scrubbed.WALDir = ""
	scrubbed.WALOptions = wal.Options{}
	e := New(idx, scrubbed)
	e.wal = w
	return e, report, nil
}

// replayRecord applies one recovered record through the mutable indexer.
// The update log reassigns sequence numbers and insert IDs during replay;
// both are deterministic (gap-free seqs, lowest-free-slot IDs), so they
// must reproduce the logged values exactly — a mismatch means the WAL does
// not belong to this index state.
func replayRecord(m index.MutableObjectIndexer, r updatelog.Record) error {
	switch r.Op {
	case updatelog.OpInsert:
		id, err := m.Insert(r.Loc)
		if err != nil {
			return err
		}
		if id != r.ID {
			return fmt.Errorf("insert reassigned id %d, logged id %d", id, r.ID)
		}
		return nil
	case updatelog.OpDelete:
		return m.Delete(r.ID)
	case updatelog.OpMove:
		return m.Move(r.ID, r.Loc)
	default:
		return fmt.Errorf("unknown op %v", r.Op)
	}
}

// Health is the engine's durability health.
type Health struct {
	// Durable reports whether a write-ahead log is attached (engines from
	// Open). Non-durable engines are always Healthy.
	Durable bool
	// WAL is the attached WAL's state; meaningful only when Durable.
	WAL wal.Health
}

// Healthy reports whether the engine accepts updates: always for a
// non-durable engine, and exactly while the WAL is healthy for a durable
// one.
func (h Health) Healthy() bool {
	return !h.Durable || h.WAL.State == wal.StateHealthy
}

// Health returns the engine's durability health. While the WAL is degraded
// (h.Healthy() false), update kinds return wal.ErrDegradedReadOnly and
// reads continue to serve; the WAL probes the disk and the engine resumes
// accepting updates automatically once a probe succeeds.
func (e *Engine) Health() Health {
	if e.wal == nil {
		return Health{}
	}
	return Health{Durable: true, WAL: e.wal.Health()}
}

// WAL returns the attached write-ahead log, or nil for a non-durable
// engine. Through it callers observe the durable watermark (DurableSeq),
// force an fsync (Flush), and reclaim segments covered by a snapshot
// (Checkpoint).
func (e *Engine) WAL() *wal.WAL { return e.wal }

// Close flushes and detaches the write-ahead log: everything the update
// log has applied is made durable before Close returns nil. A degraded WAL
// cannot flush — Close then reports the degradation error, and exactly the
// never-acknowledged suffix is at risk. Closing a non-durable engine is a
// no-op. The engine must not execute further updates after Close.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Close()
}
