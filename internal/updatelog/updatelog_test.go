package updatelog

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viptree/internal/model"
)

// fakeApplier records applied updates and detects any violation of the
// single-writer contract: concurrent entry into ApplyUpdate/PublishEpoch,
// or a publish that does not cover every applied seq.
type fakeApplier struct {
	inside    atomic.Int32
	reentered atomic.Bool

	mu        sync.Mutex
	applied   []Record
	published []uint64
	rejectID  int // ApplyUpdate fails for this r.ID (when > 0)
	nextID    int
}

var errRejected = errors.New("rejected")

func (f *fakeApplier) enter() {
	if f.inside.Add(1) != 1 {
		f.reentered.Store(true)
	}
}

func (f *fakeApplier) leave() { f.inside.Add(-1) }

func (f *fakeApplier) ApplyUpdate(r *Record) error {
	f.enter()
	defer f.leave()
	if f.rejectID > 0 && r.ID == f.rejectID {
		return errRejected
	}
	if r.Op == OpInsert {
		f.mu.Lock()
		f.nextID++
		r.ID = f.nextID
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.applied = append(f.applied, *r)
	f.mu.Unlock()
	return nil
}

func (f *fakeApplier) PublishEpoch(seq uint64) {
	f.enter()
	defer f.leave()
	f.mu.Lock()
	f.published = append(f.published, seq)
	f.mu.Unlock()
}

func loc(p int) model.Location {
	return model.Location{Partition: model.PartitionID(p)}
}

// follower collects what the log hands its follower.
type follower struct {
	mu   sync.Mutex
	recs []Record
}

func (fl *follower) follow(applied []Record) {
	fl.mu.Lock()
	fl.recs = append(fl.recs, applied...)
	fl.mu.Unlock()
}

func (fl *follower) records() []Record {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return append([]Record(nil), fl.recs...)
}

// newFollowed returns a log over a with a collecting follower set.
func newFollowed(t *testing.T, a Applier, startSeq uint64) (*Log, *follower) {
	t.Helper()
	l := New(a, startSeq)
	fl := &follower{}
	if err := l.SetFollower(fl.follow); err != nil {
		t.Fatal(err)
	}
	return l, fl
}

// TestSubmitAssignsMonotonicSeqs drives sequential submissions and checks
// the seq numbering, head/published tracking and what the follower gets.
func TestSubmitAssignsMonotonicSeqs(t *testing.T) {
	f := &fakeApplier{}
	l, fl := newFollowed(t, f, 0)
	for i := 1; i <= 5; i++ {
		id, seq, err := l.Submit(OpInsert, 0, loc(i))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("Submit %d: seq = %d, want %d", i, seq, i)
		}
		if id != i {
			t.Fatalf("Submit %d: id = %d, want %d (applier-assigned)", i, id, i)
		}
		if l.HeadSeq() != uint64(i) || l.PublishedSeq() != uint64(i) {
			t.Fatalf("after submit %d: head=%d pub=%d", i, l.HeadSeq(), l.PublishedSeq())
		}
	}
	recs := fl.records()
	if len(recs) != 5 {
		t.Fatalf("follower got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Loc.Partition != model.PartitionID(i+1) {
			t.Fatalf("record %d has partition %d", i, r.Loc.Partition)
		}
	}
}

// TestFailedUpdateConsumesNoSeq submits a rejected op between two applied
// ones: the failure must surface to its submitter, consume no sequence
// number, and never reach the follower.
func TestFailedUpdateConsumesNoSeq(t *testing.T) {
	f := &fakeApplier{rejectID: 77}
	l, fl := newFollowed(t, f, 0)
	if _, seq, err := l.Submit(OpDelete, 1, model.Location{}); err != nil || seq != 1 {
		t.Fatalf("first submit: seq=%d err=%v", seq, err)
	}
	if _, seq, err := l.Submit(OpDelete, 77, model.Location{}); !errors.Is(err, errRejected) || seq != 0 {
		t.Fatalf("rejected submit: seq=%d err=%v, want seq=0 err=errRejected", seq, err)
	}
	if _, seq, err := l.Submit(OpDelete, 2, model.Location{}); err != nil || seq != 2 {
		t.Fatalf("third submit: seq=%d err=%v", seq, err)
	}
	if recs := fl.records(); len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("follower got %+v, want ids 1,2", recs)
	}
}

// gateApplier wraps fakeApplier but blocks inside the first ApplyUpdate
// until released, letting tests build a combined batch deterministically
// behind a stalled leader.
type gateApplier struct {
	fakeApplier
	entered chan struct{} // closed once the first ApplyUpdate is inside
	release chan struct{} // the first ApplyUpdate returns when this closes
	first   sync.Once
}

func (g *gateApplier) ApplyUpdate(r *Record) error {
	g.first.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.fakeApplier.ApplyUpdate(r)
}

// TestRejectedInCombinedBatchWakesAll is the regression test for the
// combining-leader aliasing bug: with the leader blocked mid-apply, a
// rejected update queues ahead of applied ones so all three land in one
// combined batch. Every submitter must be woken exactly once — the
// rejected one with its error, the others with their seqs — and no
// duplicate wakeup token may leak into the pooled request (a later
// Submit must apply, not return early with stale state).
func TestRejectedInCombinedBatchWakesAll(t *testing.T) {
	g := &gateApplier{
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	g.rejectID = 77
	l := New(g, 0)

	type result struct {
		seq uint64
		err error
	}
	submit := func(id int) <-chan result {
		c := make(chan result, 1)
		go func() {
			_, seq, err := l.Submit(OpDelete, id, model.Location{})
			c <- result{seq, err}
		}()
		return c
	}
	queued := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			l.mu.Lock()
			q := len(l.queue)
			l.mu.Unlock()
			if q == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue never reached %d pending requests", n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	leaderC := submit(1) // becomes leader, stalls inside ApplyUpdate
	<-g.entered
	rejectedC := submit(77) // first in the next combined batch
	queued(1)
	okB := submit(2)
	okC := submit(3)
	queued(3)
	close(g.release)

	wait := func(name string, c <-chan result) result {
		t.Helper()
		select {
		case r := <-c:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Submit never returned (lost wakeup)", name)
			return result{}
		}
	}
	if r := wait("leader", leaderC); r.err != nil || r.seq != 1 {
		t.Fatalf("leader: seq=%d err=%v, want seq=1", r.seq, r.err)
	}
	if r := wait("rejected", rejectedC); !errors.Is(r.err, errRejected) || r.seq != 0 {
		t.Fatalf("rejected: seq=%d err=%v, want seq=0 errRejected", r.seq, r.err)
	}
	seqs := map[uint64]bool{}
	for name, c := range map[string]<-chan result{"okB": okB, "okC": okC} {
		r := wait(name, c)
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		seqs[r.seq] = true
	}
	if !seqs[2] || !seqs[3] {
		t.Fatalf("applied seqs = %v, want {2,3}", seqs)
	}
	// A leaked duplicate token would satisfy this Submit's wait before
	// its update is applied.
	if _, seq, err := l.Submit(OpDelete, 4, model.Location{}); err != nil || seq != 4 {
		t.Fatalf("post-batch submit: seq=%d err=%v, want seq=4", seq, err)
	}
	if l.HeadSeq() != 4 {
		t.Fatalf("head = %d, want 4", l.HeadSeq())
	}
}

// TestStartSeqOffset checks a log constructed over already-published state:
// numbering continues from startSeq, and the follower gets only the new
// records.
func TestStartSeqOffset(t *testing.T) {
	f := &fakeApplier{}
	l, fl := newFollowed(t, f, 10)
	if l.HeadSeq() != 10 || l.PublishedSeq() != 10 {
		t.Fatalf("fresh log over seq 10: head=%d pub=%d", l.HeadSeq(), l.PublishedSeq())
	}
	if _, seq, err := l.Submit(OpDelete, 1, model.Location{}); err != nil || seq != 11 {
		t.Fatalf("submit: seq=%d err=%v, want 11", seq, err)
	}
	if recs := fl.records(); len(recs) != 1 || recs[0].Seq != 11 {
		t.Fatalf("follower got %+v, want the one record at seq 11", recs)
	}
}

// TestConcurrentSubmitSingleWriter hammers Submit from many goroutines and
// verifies the single-writer contract (no concurrent ApplyUpdate or
// PublishEpoch), gap-free seqs, and that every publish covers the batch.
func TestConcurrentSubmitSingleWriter(t *testing.T) {
	f := &fakeApplier{}
	l := New(f, 0)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, _, err := l.Submit(OpInsert, 0, loc(g)); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if f.reentered.Load() {
		t.Fatal("applier was entered concurrently: single-writer contract violated")
	}
	const total = goroutines * perG
	if l.HeadSeq() != total || l.PublishedSeq() != total {
		t.Fatalf("head=%d pub=%d, want %d", l.HeadSeq(), l.PublishedSeq(), total)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.applied) != total {
		t.Fatalf("applied %d records, want %d", len(f.applied), total)
	}
	for i, r := range f.applied {
		if r.Seq != uint64(i+1) {
			t.Fatalf("applied record %d has seq %d: gap or reorder", i, r.Seq)
		}
	}
	// Publishes must be strictly increasing and end at the head; there must
	// be at most one per applied record (batching can only reduce them).
	if n := len(f.published); n == 0 || n > total {
		t.Fatalf("%d publishes for %d updates", len(f.published), total)
	}
	for i := 1; i < len(f.published); i++ {
		if f.published[i] <= f.published[i-1] {
			t.Fatalf("publish seqs not increasing: %d after %d", f.published[i], f.published[i-1])
		}
	}
	if last := f.published[len(f.published)-1]; last != total {
		t.Fatalf("last publish covers seq %d, want %d", last, total)
	}
}

// TestFollowerGetsEveryAppliedRecordOnce runs 8 concurrent submitters whose
// updates the applier partly rejects. The follower must get every applied
// record exactly once, in seq order, with no gaps and no rejected update;
// each batch must already be published when the follower gets it, and a
// submitter must not return before the follower has its record. A second
// follower is refused.
func TestFollowerGetsEveryAppliedRecordOnce(t *testing.T) {
	f := &fakeApplier{rejectID: 77}
	l := New(f, 0)
	var (
		mu      sync.Mutex
		got     []Record
		unpub   bool
		batches int
	)
	err := l.SetFollower(func(applied []Record) {
		mu.Lock()
		defer mu.Unlock()
		if l.PublishedSeq() < applied[len(applied)-1].Seq {
			unpub = true
		}
		got = append(got, applied...)
		batches++
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetFollower(func([]Record) {}); err == nil {
		t.Fatal("a second SetFollower succeeded")
	}
	followed := func(seq uint64) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) > 0 && got[len(got)-1].Seq >= seq
	}

	const goroutines = 8
	const perG = 300
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%4 == g%4 {
					// Moves of object 77 are always rejected.
					if _, seq, err := l.Submit(OpMove, 77, loc(g)); !errors.Is(err, errRejected) || seq != 0 {
						t.Errorf("rejected move: seq=%d err=%v", seq, err)
						return
					}
					rejected.Add(1)
					continue
				}
				_, seq, err := l.Submit(OpInsert, 0, loc(g))
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if !followed(seq) {
					t.Errorf("Submit of seq %d returned before the follower got it", seq)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	applied := f.applied
	if want := goroutines*perG - int(rejected.Load()); len(applied) != want || l.HeadSeq() != uint64(want) {
		t.Fatalf("applied %d records, head %d, want %d", len(applied), l.HeadSeq(), want)
	}
	if unpub {
		t.Fatal("the follower got a batch before its epoch was published")
	}
	if len(got) != len(applied) {
		t.Fatalf("follower got %d records, want %d", len(got), len(applied))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("follower record %d has seq %d: gap, duplicate or reorder", i, r.Seq)
		}
		if r != applied[i] {
			t.Fatalf("follower record %d = %+v, applied %+v", i, r, applied[i])
		}
		if r.Op != OpInsert {
			t.Fatalf("follower got a rejected update: %+v", r)
		}
	}
	t.Logf("%d records in %d follower batches", len(got), batches)
}

// TestRecordCodecRoundTrip round-trips randomized records through the
// binary codec, including back-to-back streaming of mixed op kinds.
func TestRecordCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	var want []Record
	for i := 0; i < 200; i++ {
		r := Record{
			Seq: rng.Uint64(),
			Op:  Op(1 + rng.Intn(3)),
			ID:  rng.Intn(1 << 30),
		}
		if r.Op != OpDelete {
			r.Loc = model.Location{Partition: model.PartitionID(rng.Intn(1 << 20))}
			r.Loc.Point.X = rng.NormFloat64() * 1e3
			r.Loc.Point.Y = rng.NormFloat64() * 1e3
			r.Loc.Point.Floor = rng.Intn(50) - 10
		}
		buf = AppendRecord(buf, &r)
		want = append(want, r)
	}
	for i := 0; len(buf) > 0; i++ {
		r, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
		buf = buf[n:]
	}
}

// TestDecodeRecordTypedErrors feeds malformed inputs and checks each yields
// its typed error.
func TestDecodeRecordTypedErrors(t *testing.T) {
	valid := AppendRecord(nil, &Record{Seq: 1, Op: OpMove, ID: 3, Loc: loc(2)})
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShortRecord},
		{"truncated header", valid[:10], ErrShortRecord},
		{"truncated location", valid[:20], ErrShortRecord},
		{"unknown op", append([]byte{99}, valid[1:]...), ErrUnknownOp},
		{"zero op", append([]byte{0}, valid[1:]...), ErrUnknownOp},
		{"negative id", func() []byte {
			b := append([]byte(nil), valid...)
			for i := 9; i < 17; i++ {
				b[i] = 0xff
			}
			return b
		}(), ErrCorruptRecord},
		{"negative partition", func() []byte {
			b := append([]byte(nil), valid...)
			for i := 17; i < 25; i++ {
				b[i] = 0xff
			}
			return b
		}(), ErrCorruptRecord},
		{"NaN coordinate", func() []byte {
			b := append([]byte(nil), valid...)
			b[29], b[30] = 0x7f, 0xf8 // quiet NaN bits in the X field
			return b
		}(), ErrCorruptRecord},
	}
	for _, tc := range cases {
		if _, _, err := DecodeRecord(tc.buf); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestOpString pins the Stringer output used in logs and errors.
func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpInsert: "insert", OpDelete: "delete", OpMove: "move", Op(9): "op(9)"} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
}

// FuzzDecodeRecord fuzzes the wire decoder: any input must yield either a
// successful decode that re-encodes to the same bytes, or a typed error —
// never a panic, never an untyped error.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, &Record{Seq: 1, Op: OpInsert, ID: 0, Loc: loc(3)}))
	f.Add(AppendRecord(nil, &Record{Seq: 2, Op: OpDelete, ID: 5}))
	f.Add(AppendRecord(nil, &Record{Seq: 3, Op: OpMove, ID: 5, Loc: loc(1)}))
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrUnknownOp) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		re := AppendRecord(nil, &r)
		if len(re) != n {
			t.Fatalf("re-encode produced %d bytes, decode consumed %d", len(re), n)
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode differs at byte %d", i)
			}
		}
	})
}
