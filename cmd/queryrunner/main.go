// Command queryrunner runs a query workload (shortest distance, shortest
// path, kNN or range) against a chosen index on a chosen venue through the
// concurrent query engine, and reports per-query latency and aggregate
// throughput — a command-line counterpart to the Go benchmarks in
// bench_test.go.
//
// With -load it serves from an index snapshot written by `indexbuild -out`
// instead of building one: the process starts in milliseconds because no
// tree construction runs at all, and the loaded index answers bit-identical
// queries to a freshly built one. With -verify every distance/path result is
// cross-checked against the exact D2D ground truth and kNN/range results
// against a brute-force scan, which is how CI guards the on-disk format.
//
// With -update-ratio the workload becomes a mixed read/write stream: the
// given fraction of operations are object updates (moves of random objects
// to random locations) interleaved with the chosen read query, served
// concurrently by the engine against the live object index — the
// moving-objects scenario the IP-Tree/VIP-Tree object layer is built for.
// Throughput is then reported separately as QPS (reads) and UPS (updates).
// Updates flow through the index's single-writer update log while reads
// serve lock-free from published epochs; the report includes the final log
// head and the maximum applied-epoch lag (how far the published epoch
// trailed the log tip) observed during the run.
//
// Usage:
//
//	queryrunner -venue Men-2 -index vip -query distance -n 10000
//	queryrunner -venue CL -index distaw -query knn -k 5 -objects 50
//	queryrunner -venue Men -index vip -query distance -n 100000 -parallel 8
//	queryrunner -load men-vip.snap -query distance -n 10000 -verify
//	queryrunner -venue Men -index vip -query knn -n 50000 -update-ratio 0.1 -parallel 4
//	queryrunner -venue Men -index vip -query distance -n 100000 -batch 1024
//	queryrunner -venue Men -index vip -query knn -update-ratio 0.2 -wal /tmp/men.wal
//
// With -wal DIR every object update is appended to a durable write-ahead
// log before the process exits: on startup the runner recovers whatever a
// previous run left in DIR (replaying the log over the loaded index and
// reporting the recovery time), and on SIGINT/SIGTERM it drains the
// in-flight batch, flushes the log to disk and exits 0 — no durably
// acknowledged update is ever lost, even across a kill -9 (the torn tail is
// truncated on the next start). -wal-sync picks the fsync policy: always
// (every batch, the default), interval=50ms, or rotate (only at segment
// boundaries).
//
// With -batch N the workload is submitted in batches of N queries, which is
// how a real serving frontend hands work to the engine: each batch flows
// through the batched query planner (a per-pair fan-out over the workers
// for distance, shared source climbs and the climb cache for kNN/range), and
// the report adds the per-batch latency next to the per-query quantiles.
//
// With -workload zipf the query points are Zipf-skewed over per-partition
// hot spots instead of uniform: a few hot sources dominate, so batched
// kNN/range execution hits the climb cache on almost every query. The
// report then includes the cache hit rate next to the throughput:
//
//	queryrunner -venue Men -index vip -query knn -n 50000 -batch 256 -workload zipf
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"viptree/internal/baseline/distaware"
	"viptree/internal/baseline/distmatrix"
	"viptree/internal/baseline/gtree"
	"viptree/internal/baseline/road"
	"viptree/internal/bench"
	"viptree/internal/engine"
	"viptree/internal/index"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/snapshot"
	"viptree/internal/venuegen"
	"viptree/internal/wal"
)

func main() {
	var (
		venue       = flag.String("venue", "Men", "venue to query: MC, MC-2, Men, Men-2, CL or CL-2 (ignored with -load)")
		indexName   = flag.String("index", "vip", "index to build: ip, vip, distmx, distaw, gtree or road (ignored with -load)")
		scale       = flag.String("scale", "small", "venue scale: tiny, small or full (ignored with -load)")
		query       = flag.String("query", "distance", "query type: distance, path, knn or range")
		n           = flag.Int("n", 1000, "number of queries to run")
		k           = flag.Int("k", 5, "k for kNN queries")
		objects     = flag.Int("objects", 50, "number of indexed objects for kNN/range queries (ignored when the snapshot embeds an object index)")
		radius      = flag.Float64("r", 100, "radius in metres for range queries")
		seed        = flag.Int64("seed", 1, "workload seed")
		workload    = flag.String("workload", "uniform", "query point distribution: uniform, or zipf (Zipf-skewed over per-partition hot spots — repeated sources exercise the planner's climb cache)")
		parallel    = flag.Int("parallel", 1, "engine worker count (0 = GOMAXPROCS)")
		load        = flag.String("load", "", "serve from this index snapshot (written by indexbuild -out) instead of building")
		verify      = flag.Bool("verify", false, "cross-check every result against the exact D2D ground truth")
		updateRatio = flag.Float64("update-ratio", 0, "fraction of operations that are object updates (moves) in [0,1); requires a mutable object index (ip/vip)")
		batch       = flag.Int("batch", 0, "submit the workload in batches of this many queries (0 = one batch for the whole workload); each batch runs through the batched query planner")
		walDir      = flag.String("wal", "", "durable write-ahead log directory: recover any state a previous run left there, then log every object update (requires a mutable object index: ip, vip or a tree snapshot)")
		walSync     = flag.String("wal-sync", "always", "wal fsync policy: always, rotate, or interval=<duration> (e.g. interval=50ms)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"queryrunner drives a query workload through the concurrent engine and\n"+
				"reports latency and throughput. It either builds an index (-venue/-index)\n"+
				"or serves instantly from a snapshot (-load). -verify cross-checks every\n"+
				"answer against the exact ground truth. -update-ratio mixes object moves\n"+
				"into the stream and reports QPS (reads) and UPS (updates) separately.\n"+
				"-batch N submits the workload in batches of N queries through the\n"+
				"batched query planner and reports batched throughput. -wal DIR makes\n"+
				"updates durable: the runner recovers DIR on startup and flushes it on\n"+
				"shutdown (SIGINT/SIGTERM drain cleanly and exit 0).\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *updateRatio < 0 || *updateRatio >= 1 {
		fmt.Fprintln(os.Stderr, "-update-ratio must be in [0,1)")
		os.Exit(2)
	}
	if *batch < 0 {
		fmt.Fprintln(os.Stderr, "-batch must be >= 0")
		os.Exit(2)
	}
	if *workload != "uniform" && *workload != "zipf" {
		fmt.Fprintln(os.Stderr, "-workload must be uniform or zipf")
		os.Exit(2)
	}

	var (
		v    *model.Venue
		ix   index.ObjectIndexer
		oq   index.ObjectQuerier
		objs []model.Location
	)
	if *load != "" {
		loadStart := time.Now()
		snap, err := snapshot.Load(*load)
		if err != nil {
			// The typed failure kind (missing, truncated, checksum, …) tells an
			// operator — or a supervisor parsing stderr — whether to fix the
			// path, re-copy the file, or rebuild the index.
			fmt.Fprintf(os.Stderr, "queryrunner: cannot serve from %s: %v [%s]\n", *load, err, snapshot.Classify(err))
			os.Exit(1)
		}
		v = snap.Venue
		ix = snap.Index()
		fmt.Printf("loaded %s (%s) in %v — no tree construction\n",
			*load, snap.Kind(), time.Since(loadStart).Round(time.Microsecond))
		if snap.Objects != nil {
			oq = snap.Objects
			objs = snap.Objects.Objects()
		}
	} else {
		sc, err := venuegen.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if v, err = venuegen.Named(*venue, sc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ix = buildIndex(v, *indexName)
	}
	if oq == nil {
		objs = bench.Objects(v, *objects, *seed+7)
		oq = ix.NewObjectQuerier(objs)
	}

	// Latency sampling is a fixed ring of atomic slots: recording is one
	// clock read plus one slot write per operation, so the hot loop stays
	// allocation-free even with percentiles enabled.
	engOpts := engine.Options{Workers: *parallel, Objects: oq, LatencySampleSize: 1 << 14}
	var eng *engine.Engine
	if *walDir != "" {
		sync, err := parseSyncPolicy(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		engOpts.WALDir = *walDir
		engOpts.WALOptions = wal.Options{Sync: sync}
		var rep *engine.WALRecovery
		eng, rep, err = engine.Open(ix, engOpts)
		if err != nil {
			kind := "wal-io"
			if errors.Is(err, wal.ErrCorrupt) {
				kind = "wal-corrupt"
			}
			fmt.Fprintf(os.Stderr, "queryrunner: cannot recover %s: %v [%s]\n", *walDir, err, kind)
			os.Exit(1)
		}
		printRecovery(rep, sync)
	} else {
		eng = engine.New(ix, engOpts)
	}

	// Live object IDs and locations: WAL replay may have inserted, moved or
	// deleted objects, and a snapshot saved from a mutated index may contain
	// deleted slots — dead slots must be neither move targets nor part of
	// the verification ground truth.
	liveIDs := make([]int, 0, len(objs))
	if mi, ok := oq.(*iptree.ObjectIndex); ok {
		objs = mi.Objects()
		live := make([]model.Location, 0, len(objs))
		for id := range objs {
			if loc, alive := mi.Location(id); alive {
				liveIDs = append(liveIDs, id)
				live = append(live, loc)
			}
		}
		objs = live
	} else {
		for id := range objs {
			liveIDs = append(liveIDs, id)
		}
	}
	if *updateRatio > 0 {
		if eng.Mutable() == nil {
			fmt.Fprintf(os.Stderr, "index %s does not support live object updates; use -index ip or vip (or a tree snapshot)\n", ix.Name())
			os.Exit(2)
		}
		if *verify && (*query == "knn" || *query == "range") {
			fmt.Fprintln(os.Stderr, "-verify cannot check knn/range results while objects move; drop -verify or -update-ratio")
			os.Exit(2)
		}
		if len(objs) == 0 {
			fmt.Fprintln(os.Stderr, "-update-ratio needs at least one object (-objects)")
			os.Exit(2)
		}
	}

	var queries []engine.Query
	switch *query {
	case "distance", "path":
		kind := engine.KindDistance
		if *query == "path" {
			kind = engine.KindPath
		}
		// With -workload zipf the sources are skewed, the targets uniform:
		// the hot-source pattern a venue sees at rush hour.
		var srcs []model.Location
		if *workload == "zipf" {
			srcs = zipfPoints(v, *n, *seed)
		}
		for i, p := range bench.Pairs(v, *n, *seed) {
			s := p.S
			if srcs != nil {
				s = srcs[i]
			}
			queries = append(queries, engine.Query{Kind: kind, S: s, T: p.T})
		}
	case "knn":
		for _, p := range queryPoints(v, *n, *seed, *workload) {
			queries = append(queries, engine.Query{Kind: engine.KindKNN, S: p, K: *k})
		}
	case "range":
		for _, p := range queryPoints(v, *n, *seed, *workload) {
			queries = append(queries, engine.Query{Kind: engine.KindRange, S: p, Radius: *radius})
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown query type %q\n", *query)
		os.Exit(2)
	}

	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "no queries to run (-n 0)")
		os.Exit(2)
	}

	// Mix object updates into the stream: each selected slot becomes a move
	// of a random object to a random location, exercising the mutable object
	// layer concurrently with the reads around it.
	reads, updates := len(queries), 0
	if *updateRatio > 0 {
		rng := rand.New(rand.NewSource(*seed + 99))
		for i := range queries {
			if rng.Float64() < *updateRatio {
				queries[i] = engine.Query{
					Kind:     engine.KindMove,
					ObjectID: liveIDs[rng.Intn(len(liveIDs))],
					S:        v.RandomLocation(rng),
				}
				updates++
			}
		}
		reads = len(queries) - updates
	}

	// Warm the pooled scratch so the measurement reflects steady state, and
	// drop the warm-up samples from the latency ring.
	warm := queries
	if len(warm) > 64 {
		warm = warm[:64]
	}
	eng.ExecuteBatch(warm)
	eng.ResetLatencies()

	// While updates flow through the single-writer log, sample the
	// applied-epoch lag (head seq minus published seq): it measures how far
	// the epoch readers serve behind the log tip, and is transiently
	// non-zero only inside a combining batch.
	var lagStop chan struct{}
	var lagDone chan struct{}
	var maxLag uint64
	if updates > 0 {
		if clog := eng.ChangeLog(); clog != nil {
			lagStop, lagDone = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(lagDone)
				tick := time.NewTicker(200 * time.Microsecond)
				defer tick.Stop()
				for {
					select {
					case <-lagStop:
						return
					case <-tick.C:
						head, pub := clog.HeadSeq(), clog.PublishedSeq()
						if head > pub && head-pub > maxLag {
							maxLag = head - pub
						}
					}
				}
			}()
		}
	}

	// Graceful shutdown: SIGINT/SIGTERM stops the run between batches — the
	// in-flight batch drains, the WAL flushes to disk, and the process exits
	// 0 having durably acknowledged everything it applied. (With -batch 0
	// the whole workload is one batch, so the signal takes effect at the end.)
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigC)

	// -batch N submits the workload the way a serving frontend would: in
	// fixed-size batches, each one planned and executed as a unit. With
	// -batch 0 the whole workload is one batch (the historical behaviour).
	pre := eng.Stats() // baseline for the climb-cache hit rate of the measured run
	start := time.Now()
	var results []engine.Result
	nBatches := 1
	interrupted := false
	if *batch > 0 && *batch < len(queries) {
		results = make([]engine.Result, 0, len(queries))
		nBatches = 0
		for off := 0; off < len(queries) && !interrupted; off += *batch {
			end := min(off+*batch, len(queries))
			results = append(results, eng.ExecuteBatch(queries[off:end])...)
			nBatches++
			select {
			case sig := <-sigC:
				fmt.Printf("caught %v: draining and flushing the wal\n", sig)
				interrupted = true
			default:
			}
		}
	} else {
		results = eng.ExecuteBatch(queries)
	}
	total := time.Since(start)
	if lagStop != nil {
		close(lagStop)
		<-lagDone
	}

	if interrupted {
		closeWAL(eng)
		fmt.Printf("interrupted: drained %d/%d operations cleanly\n", len(results), len(queries))
		return
	}

	failed := 0
	var firstErr error
	for i := range results {
		if results[i].Err != nil {
			if firstErr == nil {
				firstErr = results[i].Err
			}
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d queries failed: %v\n", failed, firstErr)
		os.Exit(1)
	}

	if *verify {
		if err := verifyResults(v, queries, results, objs); err != nil {
			fmt.Fprintln(os.Stderr, "verification failed:", err)
			os.Exit(1)
		}
		fmt.Printf("verified %d results against the D2D ground truth\n", len(results))
	}

	closeWAL(eng)

	workers := eng.Workers()
	perQuery := float64(total.Microseconds()) / float64(len(queries))
	latencies := formatQuantiles(eng)
	mode := ""
	if *batch > 0 {
		perBatch := total / time.Duration(nBatches)
		mode = fmt.Sprintf(", batch=%d (%d batches, %v/batch)", *batch, nBatches, perBatch.Round(time.Microsecond))
	}
	// Climb-cache hit rate of the measured run: only batched kNN/range
	// execution touches the cache, so the line appears exactly when the
	// planner routed object queries through the batch path.
	if st := eng.Stats(); st.ClimbCacheHits+st.ClimbCacheMisses > pre.ClimbCacheHits+pre.ClimbCacheMisses {
		hits := st.ClimbCacheHits - pre.ClimbCacheHits
		lookups := hits + st.ClimbCacheMisses - pre.ClimbCacheMisses
		mode += fmt.Sprintf(", climb cache %.1f%% hits (%d/%d)", 100*float64(hits)/float64(lookups), hits, lookups)
	}
	if updates > 0 {
		if clog := eng.ChangeLog(); clog != nil {
			head, pub := clog.HeadSeq(), clog.PublishedSeq()
			if head != pub {
				fmt.Fprintf(os.Stderr, "update log not quiescent after the run: head %d != published %d\n", head, pub)
				os.Exit(1)
			}
			mode += fmt.Sprintf(", log head %d, max epoch lag %d", head, maxLag)
		}
		qps := float64(reads) / total.Seconds()
		ups := float64(updates) / total.Seconds()
		fmt.Printf("%s %s %s+moves: %d ops (%d reads / %d updates), %d workers (%d cores)%s, %.2f us/op, %.0f qps, %.0f ups, %s (total %v)\n",
			v.Name, ix.Name(), *query, len(queries), reads, updates, workers, runtime.NumCPU(), mode, perQuery, qps, ups, latencies, total)
		return
	}
	qps := float64(len(queries)) / total.Seconds()
	fmt.Printf("%s %s %s: %d queries, %d workers (%d cores)%s, %.2f us/query, %.0f qps, %s (total %v)\n",
		v.Name, ix.Name(), *query, len(queries), workers, runtime.NumCPU(), mode, perQuery, qps, latencies, total)
}

// queryPoints draws the kNN/range query points for the chosen workload.
func queryPoints(v *model.Venue, n int, seed int64, workload string) []model.Location {
	if workload == "zipf" {
		return zipfPoints(v, n, seed)
	}
	return bench.Points(v, n, seed)
}

// zipfPoints returns n query points Zipf-skewed over the venue's partitions:
// every partition gets one fixed hot spot, the partitions are ranked by a
// seeded shuffle, and points are drawn rank-skewed — a handful of hot
// sources (lobbies, entrances at rush hour) dominate the stream. Because
// each hot spot is one exact location, repeated draws share their Algorithm-2
// climb through the planner's climb cache; the same seed always yields the
// same stream.
func zipfPoints(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]model.Location, v.NumPartitions())
	for pid := range hot {
		hot[pid] = v.RandomLocationIn(model.PartitionID(pid), rng)
	}
	rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
	z := rand.NewZipf(rng, 1.3, 1, uint64(len(hot)-1))
	out := make([]model.Location, n)
	for i := range out {
		out[i] = hot[z.Uint64()]
	}
	return out
}

// parseSyncPolicy maps the -wal-sync flag to a wal.SyncPolicy.
func parseSyncPolicy(s string) (wal.SyncPolicy, error) {
	switch {
	case s == "always":
		return wal.SyncAlways(), nil
	case s == "rotate":
		return wal.SyncOnRotate(), nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return wal.SyncPolicy{}, fmt.Errorf("-wal-sync interval: want a positive duration, got %q", s)
		}
		return wal.SyncInterval(d), nil
	}
	return wal.SyncPolicy{}, fmt.Errorf("-wal-sync: want always, rotate or interval=<duration>, got %q", s)
}

// printRecovery reports what engine.Open reconstructed from the WAL and how
// long each recovery phase took — the startup cost of durability.
func printRecovery(rep *engine.WALRecovery, sync wal.SyncPolicy) {
	torn := ""
	if rep.TornTail {
		torn = fmt.Sprintf(", torn tail truncated (%d bytes)", rep.DroppedBytes)
	}
	fmt.Printf("wal: %d segments, %d records scanned in %v%s; %d replayed onto snapshot seq %d in %v, head %d, fsync %v\n",
		rep.Segments, rep.Scanned, rep.ScanElapsed.Round(time.Microsecond), torn,
		rep.Replayed, rep.SnapshotSeq, rep.ReplayElapsed.Round(time.Microsecond), rep.Head, sync)
}

// closeWAL flushes the write-ahead log and reports the durable watermark:
// every sequence up to it survives a crash after this point. A no-op for
// non-durable runs.
func closeWAL(eng *engine.Engine) {
	if eng.WAL() == nil {
		return
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "wal close:", err)
		os.Exit(1)
	}
	fmt.Printf("wal: flushed, durable seq %d\n", eng.WAL().DurableSeq())
}

// formatQuantiles renders the p50/p95/p99 per-operation latencies sampled by
// the engine's ring buffer during the measured batch.
func formatQuantiles(eng *engine.Engine) string {
	qs := eng.LatencyQuantiles(0.50, 0.95, 0.99)
	if qs == nil {
		return "latency n/a"
	}
	return fmt.Sprintf("p50 %s / p95 %s / p99 %s",
		qs[0].Round(100*time.Nanosecond), qs[1].Round(100*time.Nanosecond), qs[2].Round(100*time.Nanosecond))
}

// verifyResults cross-checks every engine result against the exact D2D
// ground truth: distances and path lengths must match the Dijkstra answer,
// and kNN/range distances must match a brute-force scan over the object set.
func verifyResults(v *model.Venue, queries []engine.Query, results []engine.Result, objs []model.Location) error {
	const tol = 1e-6
	approx := func(a, b float64) bool {
		if a == b {
			return true
		}
		return math.Abs(a-b) <= tol*(1+math.Abs(b))
	}
	for i, q := range queries {
		r := results[i]
		switch q.Kind {
		case engine.KindDistance, engine.KindPath:
			want := v.D2D().LocationDist(q.S, q.T)
			if !approx(r.Dist, want) {
				return fmt.Errorf("query %d: distance(%v, %v) = %v, ground truth %v", i, q.S, q.T, r.Dist, want)
			}
		case engine.KindKNN, engine.KindRange:
			// Brute-force distances to every object, ascending.
			dists := make([]float64, len(objs))
			for j, o := range objs {
				dists[j] = v.D2D().LocationDist(q.S, o)
			}
			sort.Float64s(dists)
			if q.Kind == engine.KindKNN {
				// Venues are validated connected, so every object is
				// reachable and the result count is exact — a truncated (or
				// empty) result set is a verification failure, not a pass.
				if want := min(q.K, len(objs)); len(r.Objects) != want {
					return fmt.Errorf("query %d: kNN returned %d objects, ground truth %d", i, len(r.Objects), want)
				}
				for j, res := range r.Objects {
					if !approx(res.Dist, dists[j]) {
						return fmt.Errorf("query %d: kNN rank %d distance %v, ground truth %v", i, j, res.Dist, dists[j])
					}
				}
			} else {
				// Index distances equal the ground truth only up to float
				// rounding, so objects within a whisker of the radius may
				// legitimately fall on either side: bracket the count.
				margin := tol * (1 + q.Radius)
				lower, upper := 0, 0
				for _, d := range dists {
					if d <= q.Radius-margin {
						lower++
					}
					if d <= q.Radius+margin {
						upper++
					}
				}
				if len(r.Objects) < lower || len(r.Objects) > upper {
					return fmt.Errorf("query %d: range returned %d objects, ground truth between %d and %d", i, len(r.Objects), lower, upper)
				}
			}
		}
	}
	return nil
}

// buildIndex constructs the requested index; every index satisfies the
// uniform capability interface, so the rest of the program is index-agnostic.
func buildIndex(v *model.Venue, name string) index.ObjectIndexer {
	switch name {
	case "ip":
		return iptree.MustBuildIPTree(v, iptree.Options{})
	case "vip":
		return iptree.MustBuildVIPTree(v, iptree.Options{})
	case "distmx":
		return distmatrix.Build(v, true)
	case "distaw":
		return distaware.New(v)
	case "gtree":
		return gtree.Build(v, gtree.Options{})
	case "road":
		return road.Build(v, road.Options{})
	default:
		fmt.Fprintf(os.Stderr, "unknown index %q\n", name)
		os.Exit(2)
		return nil
	}
}
