package iptree

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/updatelog"
	"viptree/internal/venuegen"
)

// This file tests the epoch-published read path: queries pin an immutable
// epoch with one atomic load and must observe exactly the state of some
// published log prefix — never a torn update, never a lock operation.

// epochSample is one query result recorded by a reader during the update
// storm, together with the sequence number of the epoch it ran against.
type epochSample struct {
	seq    uint64
	q      model.Location
	k      int     // kNN parameter; 0 for range queries
	radius float64 // range parameter
	res    []index.ObjectResult
}

// TestEpochReadersNeverSeeTornUpdates is the central consistency property
// of the update-log design: under a concurrent update storm, every query
// result is exactly the state of some published epoch — a prefix of the
// update log — verified by serially replaying that prefix into a fresh
// build and comparing bit-identical results. In particular a cross-leaf
// Move is atomic from a reader's view (the pre-epoch sharded-lock design
// documented weaker semantics: a reader overlapping a cross-leaf move
// could see the object at both locations or neither).
func TestEpochReadersNeverSeeTornUpdates(t *testing.T) {
	venues := map[string]*model.Venue{
		"paper-example": venuegen.PaperExample(),
		"men-tiny":      venuegen.Menzies(venuegen.ScaleTiny),
		"campus-tiny":   venuegen.Clayton(venuegen.ScaleTiny),
		"random-7":      randomVenue(7),
		"random-23":     randomVenue(23),
	}
	for name, v := range venues {
		t.Run(name, func(t *testing.T) {
			tree := MustBuildIPTree(v, Options{})
			initial := randomObjects(v, 12, 55)
			oi := tree.IndexObjects(initial)
			// The log's follower keeps every applied record, in the order
			// the log hands them over, for the replay below.
			var recs []updatelog.Record
			if err := oi.ChangeLog().SetFollower(func(applied []updatelog.Record) {
				recs = append(recs, applied...)
			}); err != nil {
				t.Fatal(err)
			}

			const updaters = 3
			const minOpsPerUpdater = 120
			const maxOpsPerUpdater = 100_000 // runaway backstop
			const readers = 3
			const samplesPerReader = 20

			// Updaters own disjoint ID sets (initial IDs striped by
			// updater, plus their own inserts), so every submitted update
			// is valid and consumes a sequence number. They churn at least
			// minOpsPerUpdater ops and then keep going until every reader
			// has its sample quota, so the readers genuinely race the
			// writer across many published epochs.
			var applied atomic.Uint64
			var wg sync.WaitGroup
			readersDone := make(chan struct{})
			stormDone := make(chan struct{})
			for u := 0; u < updaters; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(300 + u)))
					var owned []ObjectID
					for id := range initial {
						if id%updaters == u {
							owned = append(owned, id)
						}
					}
					for op := 0; op < maxOpsPerUpdater; op++ {
						if op >= minOpsPerUpdater {
							select {
							case <-readersDone:
								return
							default:
							}
						}
						// Insert/delete balanced so the population stays
						// near its initial size however long the storm runs.
						switch r := rng.Float64(); {
						case r < 0.25 || len(owned) == 0:
							id, err := oi.Insert(v.RandomLocation(rng))
							if err != nil {
								t.Errorf("updater %d: Insert: %v", u, err)
								return
							}
							owned = append(owned, id)
						case r < 0.50 && len(owned) > 1:
							i := rng.Intn(len(owned))
							if err := oi.Delete(owned[i]); err != nil {
								t.Errorf("updater %d: Delete(%d): %v", u, owned[i], err)
								return
							}
							owned = append(owned[:i], owned[i+1:]...)
						default:
							id := owned[rng.Intn(len(owned))]
							if err := oi.Move(id, v.RandomLocation(rng)); err != nil {
								t.Errorf("updater %d: Move(%d): %v", u, id, err)
								return
							}
						}
						applied.Add(1)
					}
				}(u)
			}
			go func() {
				wg.Wait()
				close(stormDone)
			}()

			// Readers pin epochs and record (seq, query, result) samples
			// while the storm runs, retaining at most one sample per
			// distinct epoch so the retained set spans the churn instead
			// of clustering on the final state.
			sampleCh := make(chan []epochSample, readers)
			var rwg sync.WaitGroup
			for rd := 0; rd < readers; rd++ {
				rwg.Add(1)
				go func(rd int) {
					defer rwg.Done()
					rng := rand.New(rand.NewSource(int64(900 + rd)))
					var samples []epochSample
					lastSeq := ^uint64(0)
					for len(samples) < samplesPerReader {
						select {
						case <-stormDone:
							// Updaters hit the backstop; keep what we have.
							sampleCh <- samples
							return
						default:
						}
						ep := oi.currentEpoch()
						q := v.RandomLocation(rng)
						var s epochSample
						if rng.Intn(2) == 0 {
							k := 1 + rng.Intn(8)
							s = epochSample{seq: ep.seq, q: q, k: k, res: oi.knnAt(ep, q, k)}
						} else {
							r := []float64{30, 150, 1e12}[rng.Intn(3)]
							s = epochSample{seq: ep.seq, q: q, radius: r, res: oi.rangeAt(ep, q, r)}
						}
						if ep.seq != lastSeq {
							samples = append(samples, s)
							lastSeq = ep.seq
						} else {
							// Same epoch as the last retained sample: donate
							// the rest of the timeslice to the updaters so a
							// new epoch gets published (essential on a
							// single-CPU machine, where a reader otherwise
							// sees one epoch per scheduler quantum).
							runtime.Gosched()
						}
					}
					sampleCh <- samples
				}(rd)
			}
			rwg.Wait()
			close(readersDone)
			wg.Wait()

			head := oi.ChangeLog().HeadSeq()
			if want := applied.Load(); head != want {
				t.Fatalf("log head = %d, want %d (every update must consume a seq)", head, want)
			}

			// The follower's records must be gap-free from seq 1 to head.
			if uint64(len(recs)) != head {
				t.Fatalf("follower got %d records, want %d", len(recs), head)
			}
			for i, r := range recs {
				if r.Seq != uint64(i+1) {
					t.Fatalf("follower record %d has seq %d: gap in the log", i, r.Seq)
				}
			}

			// Collect the samples, group them by epoch seq, and verify each
			// against a fresh build over the serial replay of the log
			// prefix [1..seq].
			var samples []epochSample
			for rd := 0; rd < readers; rd++ {
				samples = append(samples, <-sampleCh...)
			}
			bySeq := map[uint64][]epochSample{}
			seqs := []uint64{}
			for _, s := range samples {
				if _, ok := bySeq[s.seq]; !ok {
					seqs = append(seqs, s.seq)
				}
				bySeq[s.seq] = append(bySeq[s.seq], s)
			}
			sortUint64s(seqs)

			shadow := shadowObjects{}
			for id, loc := range initial {
				shadow[id] = loc
			}
			cursor := 0
			verified := 0
			for _, seq := range seqs {
				for cursor < len(recs) && recs[cursor].Seq <= seq {
					r := recs[cursor]
					switch r.Op {
					case updatelog.OpInsert, updatelog.OpMove:
						shadow[r.ID] = r.Loc
					case updatelog.OpDelete:
						delete(shadow, r.ID)
					}
					cursor++
				}
				rank, locs := shadow.compactRank()
				fresh := tree.IndexObjects(locs)
				for _, s := range bySeq[seq] {
					var got, want []index.ObjectResult
					if s.k > 0 {
						got, want = mapIDs(t, s.res, rank), fresh.KNN(s.q, s.k)
					} else {
						got, want = mapIDs(t, s.res, rank), fresh.Range(s.q, s.radius)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("epoch %d: query %+v observed %v, serial replay of log prefix gives %v (torn update)",
							seq, s.q, got, want)
					}
					verified++
				}
			}
			if verified == 0 {
				t.Fatal("no samples verified")
			}
			if len(seqs) < 3 {
				t.Fatalf("samples cover only %d distinct epochs; readers did not race the writer", len(seqs))
			}
			t.Logf("verified %d samples across %d distinct epochs (head %d)", verified, len(seqs), head)
		})
	}
}

func sortUint64s(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestCrossLeafMoveAtomicFromReaders pins the strengthened cross-leaf Move
// semantics directly: while objects ping-pong between partitions in
// different leaves, every pinned-epoch range query over the whole venue
// sees every object exactly once — never zero, never twice. (The pre-epoch
// design documented exactly this violation: a reader overlapping a
// cross-leaf move could observe the object in both leaves or neither.)
func TestCrossLeafMoveAtomicFromReaders(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(61))

	// Pick two partitions in different leaves.
	pa := model.PartitionID(0)
	pb := model.PartitionID(-1)
	for p := 1; p < v.NumPartitions(); p++ {
		if tree.Leaf(model.PartitionID(p)) != tree.Leaf(pa) {
			pb = model.PartitionID(p)
			break
		}
	}
	if pb < 0 {
		t.Skip("venue has a single leaf")
	}
	locA := model.Location{Partition: pa, Point: v.Partition(pa).Bounds.Center()}
	locB := model.Location{Partition: pb, Point: v.Partition(pb).Bounds.Center()}

	const numObjects = 8
	objs := make([]model.Location, numObjects)
	for i := range objs {
		objs[i] = locA
	}
	oi := tree.IndexObjects(objs)

	stop := make(chan struct{})
	var moverWG sync.WaitGroup
	moverWG.Add(1)
	go func() {
		defer moverWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := i % numObjects
			to := locB
			if i%2 == 1 {
				to = locA
			}
			if err := oi.Move(id, to); err != nil {
				t.Errorf("Move: %v", err)
				return
			}
		}
	}()

	q := v.RandomLocation(rng)
	for i := 0; i < 2000; i++ {
		ep := oi.currentEpoch()
		res := oi.rangeAt(ep, q, 1e12)
		if len(res) != numObjects {
			t.Fatalf("epoch %d: range query saw %d objects, want %d (cross-leaf move not atomic)",
				ep.seq, len(res), numObjects)
		}
		seen := map[int]bool{}
		for _, r := range res {
			if seen[r.ObjectID] {
				t.Fatalf("epoch %d: object %d reported twice", ep.seq, r.ObjectID)
			}
			seen[r.ObjectID] = true
		}
	}
	close(stop)
	moverWG.Wait()
}

// TestReadPathZeroLockOps pins the lock-free read path with the
// instrumented table mutex: the only mutex left in ObjectIndex counts its
// Lock calls, and a storm of warm kNN/Range queries must not advance the
// count at all. (Together with the data-race freedom of the epoch design
// under -race, this is the "0 mutex/RWMutex operations on the read path"
// acceptance criterion; the sharded per-leaf RWMutexes of the previous
// design are gone entirely.)
func TestReadPathZeroLockOps(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	rng := rand.New(rand.NewSource(17))
	oi := tree.IndexObjects(randomObjects(v, 24, 9))

	// Warm the scratch pools so the storm measures the steady state.
	for i := 0; i < 8; i++ {
		q := v.RandomLocation(rng)
		oi.KNN(q, 5)
		oi.Range(q, 100)
	}

	queries := make([]model.Location, 64)
	for i := range queries {
		queries[i] = v.RandomLocation(rng)
	}
	before := oi.tableMu.Ops()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := queries[(w*500+i)%len(queries)]
				oi.KNN(q, 5)
				oi.Range(q, 100)
			}
		}(w)
	}
	wg.Wait()
	if delta := oi.tableMu.Ops() - before; delta != 0 {
		t.Fatalf("read path performed %d table-lock operations across 4000 queries, want 0", delta)
	}
}

// TestReadPathNoMutexContentionUnderChurn runs the mutex profiler across a
// saturating update storm mixed with a query storm and asserts no read-path
// frame (branchAndBound, scanLeaf, KNN, Range, childMinDist) appears in the
// contention profile: whatever lock contention the storm produces belongs
// entirely to the writer and its accessors.
func TestReadPathNoMutexContentionUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling storm in -short mode")
	}
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)

	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	oi := tree.IndexObjects(randomObjects(v, 24, 13))

	var stop atomic.Bool
	var wg sync.WaitGroup
	for u := 0; u < 2; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(70 + u)))
			for !stop.Load() {
				id := u*12 + rng.Intn(12)
				if err := oi.Move(id, v.RandomLocation(rng)); err != nil {
					t.Errorf("Move: %v", err)
					return
				}
			}
		}(u)
	}
	var qwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		qwg.Add(1)
		go func(r int) {
			defer qwg.Done()
			rng := rand.New(rand.NewSource(int64(80 + r)))
			for i := 0; i < 2000; i++ {
				q := v.RandomLocation(rng)
				oi.KNN(q, 5)
				oi.Range(q, 120)
			}
		}(r)
	}
	qwg.Wait()
	stop.Store(true)
	wg.Wait()

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("mutex profile: %v", err)
	}
	profile := buf.String()
	for _, frame := range []string{"branchAndBound", "scanLeaf", "childMinDist", "ObjectIndex).KNN", "ObjectIndex).Range", "knnAt", "rangeAt"} {
		if bytes.Contains([]byte(profile), []byte(frame)) {
			t.Errorf("read-path frame %q appears in the mutex contention profile:\n%s", frame, firstLines(profile, 40))
		}
	}
}

func firstLines(s string, n int) string {
	out := ""
	for i, line := range bytes.Split([]byte(s), []byte("\n")) {
		if i >= n {
			break
		}
		out += string(line) + "\n"
	}
	return out
}

// TestAppliedEpochLagConverges checks the lag accounting: under load the
// published seq may trail the head transiently (that is the batching win),
// but at quiescence they must be equal and the published epoch must carry
// the head seq.
func TestAppliedEpochLagConverges(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleTiny)
	tree := MustBuildIPTree(v, Options{})
	oi := tree.IndexObjects(randomObjects(v, 8, 19))
	var wg sync.WaitGroup
	for u := 0; u < 4; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(u)))
			for i := 0; i < 100; i++ {
				if err := oi.Move(u*2+rng.Intn(2), v.RandomLocation(rng)); err != nil {
					t.Errorf("Move: %v", err)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	log := oi.ChangeLog()
	if log.HeadSeq() != 400 {
		t.Fatalf("head = %d, want 400", log.HeadSeq())
	}
	if log.PublishedSeq() != log.HeadSeq() {
		t.Fatalf("published %d != head %d at quiescence", log.PublishedSeq(), log.HeadSeq())
	}
	if got := oi.Epoch(); got != 400 {
		t.Fatalf("Epoch() = %d, want 400", got)
	}
}
