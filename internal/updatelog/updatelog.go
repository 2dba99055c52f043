package updatelog

import (
	"errors"
	"sync"
	"sync/atomic"

	"viptree/internal/model"
)

// Applier is the single-writer view of the structure the log maintains.
// The log guarantees ApplyUpdate and PublishEpoch are never called
// concurrently: all calls happen on one goroutine at a time (the current
// combining leader), so implementations need no internal locking against
// the log itself.
type Applier interface {
	// ApplyUpdate applies one mutation to the shadow (writer-private)
	// state. For OpInsert, r.ID is ignored on entry and MUST be set to
	// the identifier assigned to the new object before returning nil.
	// An error means the update was rejected: it consumes no sequence
	// number and must leave the shadow state unchanged.
	ApplyUpdate(r *Record) error
	// PublishEpoch atomically publishes the shadow state as the new
	// immutable epoch covering all updates up to and including seq.
	// It is called once per applied batch, never per update.
	PublishEpoch(seq uint64)
}

// request is one pending mutation waiting for the combining leader.
type request struct {
	rec  Record
	err  error
	done chan struct{}
}

var requestPool = sync.Pool{
	New: func() any { return &request{done: make(chan struct{}, 1)} },
}

// Log is a single-writer combining update log. Any goroutine may call
// Submit; internally one submitter at a time becomes the leader, drains
// the queue of pending requests, applies them in arrival order through
// the Applier, publishes one epoch for the whole batch, hands the applied
// records to the follower, and wakes the waiters. This batches epoch
// publication under contention (many updates per pointer swap) while
// keeping Submit synchronous: when Submit returns, the update is applied
// AND visible in the published epoch.
//
// Sequence numbers start at 1 and are assigned only to successfully
// applied updates, so the sequence the follower sees is gap-free by
// construction. The log itself keeps no applied record.
type Log struct {
	applier Applier

	mu       sync.Mutex // guards queue, writing, follower
	queue    []*request
	writing  bool
	follower func(applied []Record)

	// batch and applied are the leader's round buffers, reused across
	// rounds and leaders: only the goroutine running lead touches them,
	// and l.mu orders one leader's last use before the next one's first.
	batch   []*request
	applied []Record

	seq  uint64        // last assigned seq; owned by the leader
	head atomic.Uint64 // last applied seq
	pub  atomic.Uint64 // last published seq (epoch visible to readers)
}

// New returns a Log driving the given applier. startSeq is the sequence
// number already reflected in the applier's published state (0 for a
// fresh index); the first applied update gets startSeq+1.
func New(applier Applier, startSeq uint64) *Log {
	l := &Log{applier: applier, seq: startSeq}
	l.head.Store(startSeq)
	l.pub.Store(startSeq)
	return l
}

// SetFollower registers f as the log's one follower: from then on the
// combining leader passes f each applied batch, in sequence order, after
// publishing the batch's epoch and before waking its submitters. f runs on
// the leader's goroutine, so it must not block, and it must copy what it
// keeps: the slice is reused for the next batch. Set the follower before
// updates flow, so that it sees every record after the current head. A
// second call returns an error.
func (l *Log) SetFollower(f func(applied []Record)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.follower != nil {
		return errors.New("updatelog: follower already set")
	}
	l.follower = f
	return nil
}

// Submit funnels one mutation through the writer. For OpInsert, id is
// ignored and the assigned object identifier is returned. The returned
// seq is the update's position in the log (0 if err != nil). Submit is
// safe for concurrent use; updates are applied in arrival order.
func (l *Log) Submit(op Op, id int, loc model.Location) (int, uint64, error) {
	req := requestPool.Get().(*request)
	req.rec = Record{Op: op, ID: id, Loc: loc}
	req.err = nil

	l.mu.Lock()
	l.queue = append(l.queue, req)
	if l.writing {
		// A leader is draining; it will pick this request up before it
		// steps down (it re-checks the queue under mu).
		l.mu.Unlock()
	} else {
		l.writing = true
		l.lead()
	}

	<-req.done
	id, seq, err := req.rec.ID, req.rec.Seq, req.err
	requestPool.Put(req)
	return id, seq, err
}

// lead runs the combining loop. Called with l.mu held; returns with it
// released. Exactly one goroutine runs lead at a time (guarded by
// l.writing), which is what makes the Applier single-writer.
func (l *Log) lead() {
	batch, applied := l.batch, l.applied
	for {
		follow := l.follower
		batch = append(batch[:0], l.queue...)
		l.queue = l.queue[:0]
		l.mu.Unlock()

		applied = applied[:0]
		for _, req := range batch {
			req.rec.Seq = l.seq + 1
			if err := l.applier.ApplyUpdate(&req.rec); err != nil {
				req.rec.Seq = 0
				req.err = err
				continue
			}
			l.seq++
			l.head.Store(l.seq)
			applied = append(applied, req.rec)
		}
		if len(applied) > 0 {
			// Publish before waking waiters: a caller returning from
			// Submit must observe its own update in the current epoch.
			l.applier.PublishEpoch(l.seq)
			l.pub.Store(l.seq)
			if follow != nil {
				follow(applied)
			}
		}
		for _, req := range batch {
			req.done <- struct{}{}
		}

		l.mu.Lock()
		if len(l.queue) == 0 {
			// Drop the woken requests, those of earlier, longer rounds
			// too: their submitters recycle them.
			clear(batch[:cap(batch)])
			l.batch, l.applied = batch[:0], applied[:0]
			l.writing = false
			l.mu.Unlock()
			return
		}
	}
}

// HeadSeq returns the sequence number of the last applied update.
func (l *Log) HeadSeq() uint64 { return l.head.Load() }

// PublishedSeq returns the sequence number covered by the epoch readers
// currently see. It trails HeadSeq only transiently, inside a batch
// application; the gap is the applied-epoch lag.
func (l *Log) PublishedSeq() uint64 { return l.pub.Load() }
