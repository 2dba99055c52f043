// Package wal provides a durable, segmented write-ahead log for the object
// update stream (viptree/internal/updatelog). The in-memory update log gives
// ordered, gap-free sequence numbers and passes each applied batch to its
// one follower; the WAL is that follower. It queues every applied record
// and appends it to disk in CRC-framed segments from its own goroutine, so
// that a crashed process can reconstruct its exact pre-crash object state
// by restoring a snapshot and replaying the log suffix [snapshotSeq+1, head].
//
// # Durability contract
//
// A record is acknowledged-durable once it is covered by an fsync under the
// configured SyncPolicy: after every append batch (SyncAlways), at a fixed
// cadence (SyncInterval), or only at segment rotation and close
// (SyncOnRotate). DurableSeq reports the watermark; recovery is guaranteed
// to return every record at or below it, and may additionally return
// records that were written but not yet synced when the crash happened. A
// torn write at the tail of the last segment is expected crash damage and
// is truncated away; the same damage anywhere else is mid-log corruption
// and fails recovery with a *CorruptionError (see recover.go).
//
// # Degraded mode
//
// When an append or fsync keeps failing after bounded retries with
// exponential backoff, the WAL degrades instead of crashing the process: it
// reports StateDegraded (the engine then rejects updates with
// ErrDegradedReadOnly while reads keep serving), holds on to the unwritten
// batch, and keeps probing the disk at ProbeInterval. Once a probe
// succeeds, the backlog drains and the WAL returns to StateHealthy —
// updates flow again with no operator intervention.
//
// All file I/O goes through the FS interface: OSFS in production, FaultFS
// in tests (short writes, fsync failures, crash points at chosen byte
// offsets), which is how the crash-recovery property tests drive thousands
// of randomized power-loss scenarios in-process.
package wal

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"viptree/internal/updatelog"
)

// Errors reported by the WAL.
var (
	// ErrDegradedReadOnly reports that the WAL has entered degraded mode
	// after persistent append/fsync failures: updates are rejected until a
	// recovery probe succeeds, reads are unaffected.
	ErrDegradedReadOnly = errors.New("wal: log degraded after persistent append/fsync failures, serving read-only")
	// ErrClosed reports use of a closed WAL.
	ErrClosed = errors.New("wal: closed")
)

// SyncPolicy selects when appended records are fsynced, trading update
// durability against append latency. The zero value is SyncAlways.
type SyncPolicy struct {
	mode     syncMode
	interval time.Duration
}

type syncMode uint8

const (
	syncAlways syncMode = iota
	syncInterval
	syncOnRotate
)

// SyncAlways fsyncs after every append batch: an update is durable as soon
// as the appender has written the batch that holds it. Safest, slowest.
func SyncAlways() SyncPolicy { return SyncPolicy{mode: syncAlways} }

// SyncInterval fsyncs at a fixed cadence: a crash loses at most the last
// d of acknowledged-to-memory updates. d must be positive.
func SyncInterval(d time.Duration) SyncPolicy {
	if d <= 0 {
		d = 5 * time.Millisecond
	}
	return SyncPolicy{mode: syncInterval, interval: d}
}

// SyncOnRotate fsyncs only when a segment fills (and at Close): cheapest,
// bounding loss to the unsynced tail of the active segment.
func SyncOnRotate() SyncPolicy { return SyncPolicy{mode: syncOnRotate} }

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p.mode {
	case syncInterval:
		return fmt.Sprintf("interval(%v)", p.interval)
	case syncOnRotate:
		return "onrotate"
	default:
		return "always"
	}
}

// Options configures a WAL.
type Options struct {
	// Dir is the segment directory; created when missing. Required.
	Dir string
	// FS is the filesystem the WAL runs on; nil selects the real one.
	FS FS
	// Sync is the fsync policy; the zero value is SyncAlways.
	Sync SyncPolicy
	// SegmentBytes is the rotation threshold: when the active segment
	// reaches it, the segment is synced, sealed and a new one started.
	// Zero selects 4 MiB.
	SegmentBytes int64
	// MaxRetries is how many times a failed append/fsync is retried (with
	// exponential backoff) before the WAL degrades to read-only. Zero
	// selects 4.
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubling per attempt. Zero
	// selects 5ms.
	RetryBackoff time.Duration
	// ProbeInterval is the cadence of recovery probes while degraded.
	// Zero selects 500ms.
	ProbeInterval time.Duration
}

// withDefaults fills in the documented defaults.
func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	return o
}

// State is the WAL's health state.
type State uint8

const (
	// StateHealthy means appends and fsyncs are succeeding.
	StateHealthy State = iota
	// StateDegraded means persistent append/fsync failures: the engine
	// rejects updates (ErrDegradedReadOnly) while recovery probes run.
	StateDegraded
	// StateClosed means the WAL has been closed.
	StateClosed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Health is a point-in-time snapshot of the WAL's state.
type Health struct {
	// State is the durability state machine's current state.
	State State
	// DurableSeq is the last sequence number covered by an fsync; every
	// record at or below it survives any crash.
	DurableSeq uint64
	// AppendedSeq is the last sequence number written to the active
	// segment (>= DurableSeq; the gap is the unsynced tail).
	AppendedSeq uint64
	// Segments is the number of on-disk segment files.
	Segments int
	// SizeBytes is the total on-disk size of all segments.
	SizeBytes int64
	// Err is the error that degraded the WAL; nil while healthy.
	Err error
	// DegradedSince is when the WAL degraded; zero while healthy.
	DegradedSince time.Time
}

// WAL is the durable tail of one update log. Open it over a directory
// (recovering whatever segments survive there), replay the recovered
// records into the index, then Follow the index's update log to persist
// every further applied update. One goroutine (started by Follow) performs
// all file I/O; the update log's leader only queues records, and the
// exported methods only read watermarks and never touch the disk, so they
// are safe from any goroutine.
type WAL struct {
	opts Options
	fs   FS
	dir  string
	rec  *Recovery

	mu   sync.Mutex
	cond *sync.Cond // broadcast on durable/state transitions
	// state machine + watermarks (guarded by mu).
	state         State
	lastErr       error
	degradedSince time.Time
	durable       uint64
	appended      uint64
	flushGoal     uint64 // highest requested Flush target; max-merged
	sealed        []segInfo
	active        segInfo
	hasActive     bool
	closed        bool

	// pending holds the records the update log has applied and the
	// appender has not yet taken. It has its own mutex, never w.mu: the
	// log's leader fills it and must not wait behind Checkpoint's file
	// removals.
	pendMu  sync.Mutex
	pending []updatelog.Record
	wake    chan struct{} // signal: pending is not empty

	// Appender-goroutine-only state (no locking needed).
	log        *updatelog.Log
	spare      []updatelog.Record // the buffer pending gets at the next swap
	activeFile File
	badWrite   bool // last write may have landed partially; truncate before retrying
	forceSync  bool // flush in progress: sync after every batch regardless of policy
	buf        []byte
	stop       chan struct{}
	done       chan struct{}
	flushReq   chan struct{} // signal: flushTarget (under mu) was raised
}

// Open scans the directory, truncates a torn tail if the last crash left
// one, and returns a WAL positioned after the last intact record. The
// recovered records (Recovery) must be replayed into the index before
// Follow attaches the WAL to the index's update log. Mid-log corruption
// fails with a *CorruptionError.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	opts = opts.withDefaults()
	rec, segs, err := recoverDir(opts.FS, opts.Dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		opts:     opts,
		fs:       opts.FS,
		dir:      opts.Dir,
		rec:      rec,
		durable:  rec.Head,
		appended: rec.Head,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		flushReq: make(chan struct{}, 1),
		wake:     make(chan struct{}, 1),
	}
	w.cond = sync.NewCond(&w.mu)
	if n := len(segs); n > 0 {
		// Resume appending into the last segment unless it already filled.
		if segs[n-1].size < opts.SegmentBytes {
			w.active, w.hasActive = segs[n-1], true
			w.sealed = segs[:n-1]
		} else {
			w.sealed = segs
		}
	}
	return w, nil
}

// Recovery returns the result of the opening scan: the surviving records
// and what, if anything, was truncated from the torn tail.
func (w *WAL) Recovery() *Recovery { return w.rec }

// Dir returns the segment directory.
func (w *WAL) Dir() string { return w.dir }

// Follow makes the WAL the update log's follower and starts the appender:
// every record the log applies from now on is appended and fsynced per the
// sync policy. The log's head must match the recovered head — replay the
// recovered records first — and no update may flow while Follow runs. When
// the log's head is ahead of the WAL (the index was restored from a
// snapshot newer than the log's tail), the now-redundant segments are
// dropped and the WAL restarts at the snapshot sequence.
func (w *WAL) Follow(log *updatelog.Log) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.log != nil {
		w.mu.Unlock()
		return fmt.Errorf("wal: already following an update log")
	}
	logHead := log.HeadSeq()
	if logHead < w.appended {
		w.mu.Unlock()
		return fmt.Errorf("wal: update log head %d behind WAL head %d (recovered records not replayed?)", logHead, w.appended)
	}
	if logHead > w.appended {
		// Every on-disk record is <= appended <= logHead, so the snapshot
		// the log was restored from covers all of them; appending at
		// logHead+1 after the old tail would leave a sequence gap, so the
		// covered segments are dropped instead.
		for _, seg := range w.sealed {
			if err := w.fs.Remove(join(w.dir, seg.name)); err != nil {
				w.mu.Unlock()
				return fmt.Errorf("wal: dropping superseded segment %s: %w", seg.name, err)
			}
		}
		if w.hasActive {
			if err := w.fs.Remove(join(w.dir, w.active.name)); err != nil {
				w.mu.Unlock()
				return fmt.Errorf("wal: dropping superseded segment %s: %w", w.active.name, err)
			}
		}
		w.sealed, w.active, w.hasActive = nil, segInfo{}, false
		w.appended, w.durable = logHead, logHead
	}
	if err := log.SetFollower(w.follow); err != nil {
		w.mu.Unlock()
		return fmt.Errorf("wal: following the update log: %w", err)
	}
	w.log = log
	w.mu.Unlock()
	go w.run()
	return nil
}

// follow is the update log's follower: it queues an applied batch for the
// appender and wakes it. It runs on the log's leader, so it takes only
// pendMu and never blocks on the appender.
func (w *WAL) follow(applied []updatelog.Record) {
	w.pendMu.Lock()
	w.pending = append(w.pending, applied...)
	w.pendMu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default: // a wake-up is already pending; the appender takes it all
	}
}

// takePending swaps the queued records out for the spare buffer, so the
// leader keeps appending while the appender writes.
func (w *WAL) takePending() []updatelog.Record {
	w.pendMu.Lock()
	batch := w.pending
	w.pending = w.spare[:0]
	w.pendMu.Unlock()
	w.spare = batch
	return batch
}

// run is the appender loop: take the queued records, append them, fsync
// per policy, advance the durable watermark. All file I/O happens here.
func (w *WAL) run() {
	defer close(w.done)
	var tickC <-chan time.Time
	if w.opts.Sync.mode == syncInterval {
		tick := time.NewTicker(w.opts.Sync.interval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-w.wake:
			if !w.writeDurably(w.takePending()) {
				w.finish()
				return
			}
		case <-tickC:
			if !w.syncDurably() {
				w.finish()
				return
			}
		case <-w.flushReq:
			if !w.flushTo(w.flushTarget()) {
				w.finish()
				return
			}
		case <-w.stop:
			w.finish()
			return
		}
	}
}

// flushTo appends queued records until target is appended, then syncs —
// the Close/Flush path, which must not wait for a sync-policy tick. The
// leader may not have queued the last records yet when target is read, so
// it waits for their wake-up. Returns false when stopped.
func (w *WAL) flushTo(target uint64) bool {
	w.forceSync = true
	defer func() { w.forceSync = false }()
	for w.appendedSeq() < target {
		select {
		case <-w.wake:
			if !w.writeDurably(w.takePending()) {
				return false
			}
		case <-w.stop:
			return false
		}
	}
	return w.syncDurably()
}

// finish performs the final sync and releases the file handle.
func (w *WAL) finish() {
	if w.activeFile != nil {
		if w.durableSeq() < w.appendedSeq() && !w.badWrite {
			if err := w.activeFile.Sync(); err == nil {
				w.noteDurable(w.appendedSeq())
			}
		}
		w.activeFile.Close()
		w.activeFile = nil
	}
}

// writeDurably appends the batch, retrying with exponential backoff and —
// after MaxRetries — degrading to read-only while it keeps probing at
// ProbeInterval. It returns only once the batch is written (true) or the
// WAL is stopped (false), so the queued records are written strictly in
// order and no applied record is ever skipped.
func (w *WAL) writeDurably(batch []updatelog.Record) bool {
	if len(batch) == 0 {
		return true // a wake-up whose records an earlier swap took
	}
	failures := 0
	backoff := w.opts.RetryBackoff
	for {
		rest, err := w.tryAppend(batch)
		batch = rest
		if err == nil {
			w.noteHealthy()
			return true
		}
		failures++
		w.noteFailure(err, failures)
		if !w.sleepRetry(&backoff, failures) {
			return false
		}
	}
}

// syncDurably fsyncs the unsynced tail of the active segment with the same
// retry/degrade behaviour as writeDurably. Returns false when stopped.
func (w *WAL) syncDurably() bool {
	if w.activeFile == nil || w.durableSeq() >= w.appendedSeq() || w.badWrite {
		return true
	}
	failures := 0
	backoff := w.opts.RetryBackoff
	for {
		err := w.activeFile.Sync()
		if err == nil {
			w.noteDurable(w.appendedSeq())
			w.noteHealthy()
			return true
		}
		failures++
		w.noteFailure(fmt.Errorf("wal: fsync %s: %w", w.active.name, err), failures)
		if !w.sleepRetry(&backoff, failures) {
			return false
		}
	}
}

// sleepRetry waits out the backoff (capped at ProbeInterval once degraded)
// or returns false when the WAL is stopped meanwhile.
func (w *WAL) sleepRetry(backoff *time.Duration, failures int) bool {
	d := *backoff
	if failures > w.opts.MaxRetries {
		d = w.opts.ProbeInterval
	} else {
		*backoff = min(2*(*backoff), w.opts.ProbeInterval)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.stop:
		return false
	}
}

// tryAppend makes one attempt at appending the batch: roll back any torn
// previous attempt, then write the records in chunks that respect the
// segment threshold (rotating between chunks), and fsync when the policy
// (or an in-progress flush) asks for it. It returns the records it did NOT
// append, so a retry after a mid-batch failure resumes instead of
// duplicating the chunks that already landed.
func (w *WAL) tryAppend(batch []updatelog.Record) ([]updatelog.Record, error) {
	if w.badWrite {
		// The previous attempt may have left a partial frame; cut the
		// segment back to its last intact size before writing again.
		if w.activeFile != nil {
			w.activeFile.Close()
			w.activeFile = nil
		}
		path := join(w.dir, w.active.name)
		if err := w.fs.Truncate(path, w.active.size); err != nil {
			return batch, fmt.Errorf("wal: rolling back torn append in %s: %w", w.active.name, err)
		}
		w.badWrite = false
	}
	for len(batch) > 0 {
		w.buf = w.buf[:0]
		if !w.hasActive || w.active.size >= w.opts.SegmentBytes {
			if err := w.rotate(batch[0].Seq); err != nil {
				return batch, err
			}
			w.buf = append(w.buf, segMagic...)
		}
		if w.activeFile == nil {
			f, err := w.fs.OpenAppend(join(w.dir, w.active.name))
			if err != nil {
				return batch, fmt.Errorf("wal: opening segment %s: %w", w.active.name, err)
			}
			w.activeFile = f
		}
		// Fill one chunk: at least one record, stopping once the segment
		// crosses its threshold (the crossing record stays in — segments
		// may slightly exceed SegmentBytes, never split a frame).
		n := 0
		for n < len(batch) {
			w.buf = appendFrame(w.buf, &batch[n])
			n++
			if w.active.size+int64(len(w.buf)) >= w.opts.SegmentBytes {
				break
			}
		}
		if _, err := w.activeFile.Write(w.buf); err != nil {
			w.badWrite = true
			return batch, fmt.Errorf("wal: appending %d records to %s: %w", n, w.active.name, err)
		}
		w.noteAppended(batch[n-1].Seq, int64(len(w.buf)), n)
		batch = batch[n:]
	}
	if (w.opts.Sync.mode == syncAlways || w.forceSync) && w.activeFile != nil {
		if err := w.activeFile.Sync(); err != nil {
			// The bytes are written and intact — do not mark badWrite — but
			// they are not durable until a later sync succeeds.
			return batch, fmt.Errorf("wal: fsync %s: %w", w.active.name, err)
		}
		w.noteDurable(w.appendedSeq())
	}
	return nil, nil
}

// rotate seals the active segment (with a final sync — sealed segments are
// always durable) and stages a fresh one whose name carries firstSeq. The
// caller writes the magic as part of its next write.
func (w *WAL) rotate(firstSeq uint64) error {
	if w.hasActive && w.activeFile != nil {
		if w.durableSeq() < w.appendedSeq() {
			if err := w.activeFile.Sync(); err != nil {
				return fmt.Errorf("wal: fsync on rotation of %s: %w", w.active.name, err)
			}
			w.noteDurable(w.appendedSeq())
		}
		w.activeFile.Close()
		w.activeFile = nil
	}
	w.mu.Lock()
	if w.hasActive {
		w.sealed = append(w.sealed, w.active)
	}
	w.active = segInfo{name: segmentName(firstSeq), first: firstSeq, last: firstSeq - 1}
	w.hasActive = true
	w.mu.Unlock()
	return nil
}

// noteAppended advances the appended watermark after a successful write.
func (w *WAL) noteAppended(seq uint64, bytes int64, records int) {
	w.mu.Lock()
	w.appended = seq
	w.active.size += bytes
	w.active.last = seq
	w.active.records += records
	w.mu.Unlock()
}

// noteDurable advances the durable watermark (after a successful fsync)
// and wakes WaitDurable callers.
func (w *WAL) noteDurable(seq uint64) {
	w.mu.Lock()
	if seq > w.durable {
		w.durable = seq
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// noteHealthy clears degraded state after a successful attempt.
func (w *WAL) noteHealthy() {
	w.mu.Lock()
	if w.state == StateDegraded {
		w.state = StateHealthy
		w.lastErr = nil
		w.degradedSince = time.Time{}
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// noteFailure records a failed attempt, degrading the WAL once the retry
// budget is exhausted.
func (w *WAL) noteFailure(err error, failures int) {
	w.mu.Lock()
	w.lastErr = err
	if failures > w.opts.MaxRetries && w.state == StateHealthy {
		w.state = StateDegraded
		w.degradedSince = time.Now()
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// appendedSeq returns the appended watermark.
func (w *WAL) appendedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// durableSeq returns the durable watermark.
func (w *WAL) durableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// DurableSeq returns the last sequence number covered by an fsync. Every
// record at or below it survives any crash.
func (w *WAL) DurableSeq() uint64 { return w.durableSeq() }

// AppendedSeq returns the last sequence number written to disk (possibly
// not yet synced).
func (w *WAL) AppendedSeq() uint64 { return w.appendedSeq() }

// Healthy reports whether the WAL is accepting appends (not degraded, not
// closed).
func (w *WAL) Healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state == StateHealthy && !w.closed
}

// Health returns a point-in-time snapshot of the WAL's state.
func (w *WAL) Health() Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	h := Health{
		State:         w.state,
		DurableSeq:    w.durable,
		AppendedSeq:   w.appended,
		Err:           w.lastErr,
		DegradedSince: w.degradedSince,
	}
	if w.closed {
		h.State = StateClosed
	}
	for _, seg := range w.sealed {
		h.Segments++
		h.SizeBytes += seg.size
	}
	if w.hasActive {
		h.Segments++
		h.SizeBytes += w.active.size
	}
	return h
}

// WaitDurable blocks until the durable watermark reaches seq, the WAL
// degrades, or it is closed. It does not force an fsync — under
// SyncInterval/SyncOnRotate use Flush instead.
func (w *WAL) WaitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < seq && w.state == StateHealthy && !w.closed {
		w.cond.Wait()
	}
	if w.durable >= seq {
		return nil
	}
	if w.state == StateDegraded {
		return fmt.Errorf("%w (durable %d, waiting for %d: %v)", ErrDegradedReadOnly, w.durable, seq, w.lastErr)
	}
	return ErrClosed
}

// Flush appends everything the update log has applied so far and fsyncs
// it, regardless of the sync policy. It returns once the log's current head
// is durable, or with an error when the WAL is degraded or closed.
func (w *WAL) Flush() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if w.log == nil {
		w.mu.Unlock()
		return nil
	}
	target := w.log.HeadSeq()
	if target > w.flushGoal {
		w.flushGoal = target
	}
	w.mu.Unlock()
	select {
	case w.flushReq <- struct{}{}:
	default: // a signal is already pending; the appender reads the max goal
	}
	return w.WaitDurable(target)
}

// flushTarget reads the highest requested flush goal.
func (w *WAL) flushTarget() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushGoal
}

// Close flushes (everything applied by the log at the time of the call is
// made durable), stops the appender and releases the file handle. A
// degraded WAL cannot flush; Close then returns the degradation error and
// the unsynced suffix is lost — exactly the records that were never
// acknowledged as durable. Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	started := w.log != nil
	w.mu.Unlock()

	var flushErr error
	if started {
		w.mu.Lock()
		target := w.log.HeadSeq()
		if target > w.flushGoal {
			w.flushGoal = target
		}
		w.mu.Unlock()
		select {
		case w.flushReq <- struct{}{}:
		default:
		}
		w.mu.Lock()
		for w.durable < target && w.state == StateHealthy {
			w.cond.Wait()
		}
		if w.durable < target {
			flushErr = fmt.Errorf("%w: %d updates not durable at close: %v", ErrDegradedReadOnly, target-w.durable, w.lastErr)
		}
		w.mu.Unlock()
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	w.state = StateClosed
	w.cond.Broadcast()
	w.mu.Unlock()
	return flushErr
}

// Checkpoint removes sealed segments fully covered by seq — typically the
// sequence number a just-written snapshot was stamped with, after which
// recovery never needs those records again. Only a prefix of segments can
// be removed (a hole would be mid-log corruption on the next open); the
// active segment is never touched. Returns the number of segments removed.
func (w *WAL) Checkpoint(seq uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	removed := 0
	for _, seg := range w.sealed {
		if seg.records == 0 || seg.last > seq {
			break
		}
		if err := w.fs.Remove(join(w.dir, seg.name)); err != nil {
			w.sealed = w.sealed[removed:]
			return removed, fmt.Errorf("wal: removing checkpointed segment %s: %w", seg.name, err)
		}
		removed++
	}
	w.sealed = w.sealed[removed:]
	return removed, nil
}
