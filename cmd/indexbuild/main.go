// Command indexbuild builds a chosen index over a chosen venue and reports
// its construction time, memory footprint and structural statistics — the
// quantities compared in Fig 8 of the paper.
//
// With -out it additionally writes a versioned binary snapshot of the built
// index (IP-Tree and VIP-Tree only), so that a serving process — for example
// `queryrunner -load` — starts in milliseconds instead of re-paying the
// construction cost. The command prints build-vs-serialize timings so the
// trade-off is visible.
//
// Usage:
//
//	indexbuild -venue Men-2 -index vip -scale small
//	indexbuild -venue CL -index gtree -scale small
//	indexbuild -venue Men -index vip -out men-vip.snap -objects 100
//	indexbuild -compact men-vip.snap -wal /var/lib/vip/wal -out men-vip2.snap
//
// With -compact SNAP -wal DIR the command runs WAL compaction instead of a
// build: it loads the snapshot, replays the write-ahead log records past the
// snapshot's sequence stamp onto its object index, writes a freshly stamped
// snapshot to -out, and reclaims the WAL segments the new snapshot covers.
// Run it periodically to bound both recovery time and log size.
package main

import (
	"flag"
	"fmt"
	"os"
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
)

func main() {
	var (
		venue       = flag.String("venue", "Men", "venue to build over: MC, MC-2, Men, Men-2, CL or CL-2")
		indexName   = flag.String("index", "vip", "index to build: ip, vip, distmx, distaw, gtree or road")
		scale       = flag.String("scale", "small", "venue scale: tiny, small or full")
		minDegree   = flag.Int("t", 2, "minimum degree t for IP-Tree/VIP-Tree construction (Algorithm 1)")
		parallelism = flag.Int("parallelism", 0, "construction worker count for ip/vip (0 = GOMAXPROCS); the built index is bit-identical at any value")
		out         = flag.String("out", "", "write a binary snapshot of the built index to this file (ip and vip only)")
		objects     = flag.Int("objects", 0, "embed an object index over this many random objects into the snapshot (0 = none)")
		objSeed     = flag.Int64("objseed", 1, "random seed for the embedded object set")
		compactFrom = flag.String("compact", "", "compaction mode: load this snapshot, replay the -wal onto its object index, write a freshly stamped snapshot to -out, and reclaim covered WAL segments")
		walDir      = flag.String("wal", "", "write-ahead log directory to replay in -compact mode")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"indexbuild builds an index over a synthetic venue, reports construction\n"+
				"time, memory and structural statistics, and optionally persists the built\n"+
				"index as a snapshot (-out) for instant loading by queryrunner -load.\n\n"+
				"For the ip and vip indexes the construction pipeline fans out over\n"+
				"-parallelism workers and a per-phase timing breakdown is printed\n"+
				"(leaves / hierarchy / leaf matrices / non-leaf matrices / VIP\n"+
				"materialisation), so speedups are attributable to a phase.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *compactFrom != "" {
		if *walDir == "" || *out == "" {
			fmt.Fprintln(os.Stderr, "-compact requires both -wal (the log to replay) and -out (the new snapshot)")
			os.Exit(2)
		}
		compact(*compactFrom, *walDir, *out)
		return
	}

	sc, err := venuegen.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	v, err := venuegen.Named(*venue, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	vs := v.ComputeStats()
	fmt.Printf("venue %s: %d doors, %d partitions, %d D2D edges, %d floors\n",
		*venue, vs.Doors, vs.Partitions, vs.D2DEdges, vs.Floors)

	start := time.Now()
	var memory int64
	var snapshotter index.Snapshotter
	// objIndexer builds the embedded object index; the VIP tree's own method
	// must be used so the persisted index reports the right name.
	var objIndexer interface {
		IndexObjects([]model.Location) *iptree.ObjectIndex
	}
	treeOpts := iptree.Options{MinDegree: *minDegree, Parallelism: *parallelism}
	switch *indexName {
	case "ip":
		t := iptree.MustBuildIPTree(v, treeOpts)
		memory = t.MemoryBytes()
		printTreeStats(t.TreeStats())
		printBuildTimings(t.BuildTimings())
		snapshotter, objIndexer = t, t
	case "vip":
		t := iptree.MustBuildVIPTree(v, treeOpts)
		memory = t.MemoryBytes()
		printTreeStats(t.TreeStats())
		printBuildTimings(t.BuildTimings())
		snapshotter, objIndexer = t, t
	case "distmx":
		m := distmatrix.Build(v, true)
		memory = m.MemoryBytes()
	case "distaw":
		memory = distaware.New(v).MemoryBytes()
	case "gtree":
		memory = gtree.Build(v, gtree.Options{}).MemoryBytes()
	case "road":
		memory = road.Build(v, road.Options{}).MemoryBytes()
	default:
		fmt.Fprintf(os.Stderr, "unknown index %q\n", *indexName)
		os.Exit(2)
	}
	buildTime := time.Since(start)
	fmt.Printf("index %s: construction %v, memory %.2f MB\n",
		*indexName, buildTime.Round(time.Millisecond), float64(memory)/(1<<20))

	if *out == "" {
		return
	}
	if snapshotter == nil {
		fmt.Fprintf(os.Stderr, "-out is only supported for the ip and vip indexes (%q does not implement snapshot persistence)\n", *indexName)
		os.Exit(2)
	}
	var oi *iptree.ObjectIndex
	if *objects > 0 {
		oi = objIndexer.IndexObjects(bench.Objects(v, *objects, *objSeed))
	}
	serStart := time.Now()
	if err := snapshot.Save(*out, v, snapshotter, oi); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serTime := time.Since(serStart)
	info, err := os.Stat(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("snapshot %s: %.2f MB, serialized in %v (construction took %v)\n",
		*out, float64(info.Size())/(1<<20), serTime.Round(time.Millisecond),
		buildTime.Round(time.Millisecond))
	if serTime > 0 && buildTime > serTime {
		fmt.Printf("snapshot: serializing was %.1fx faster than building — load with `queryrunner -load %s`\n",
			float64(buildTime)/float64(serTime), *out)
	}
}

// compact folds the write-ahead log into a fresh snapshot: replay everything
// past the old snapshot's stamp, save the result (stamped at the new head),
// and reclaim the WAL segments the new snapshot now covers. The WAL keeps
// only what the new snapshot cannot reconstruct, so recovery after a crash
// replays a short suffix instead of the whole history.
func compact(from, walDir, out string) {
	snap, err := snapshot.Load(from)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if snap.Objects == nil {
		fmt.Fprintf(os.Stderr, "%s embeds no object index; there is nothing to replay a WAL onto (rebuild with -objects)\n", from)
		os.Exit(2)
	}
	snapshotter, ok := snap.Index().(index.Snapshotter)
	if !ok {
		fmt.Fprintf(os.Stderr, "%s index kind %s cannot be persisted\n", from, snap.Kind())
		os.Exit(2)
	}
	eng, rep, err := engine.Open(snap.Index(), engine.Options{
		Objects: snap.Objects,
		WALDir:  walDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	torn := ""
	if rep.TornTail {
		torn = fmt.Sprintf(", torn tail truncated (%d bytes)", rep.DroppedBytes)
	}
	fmt.Printf("wal: %d segments, %d records scanned in %v%s; %d replayed onto snapshot seq %d in %v, head %d\n",
		rep.Segments, rep.Scanned, rep.ScanElapsed.Round(time.Microsecond), torn,
		rep.Replayed, rep.SnapshotSeq, rep.ReplayElapsed.Round(time.Microsecond), rep.Head)

	if err := snapshot.Save(out, snap.Venue, snapshotter, snap.Objects); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	info, err := os.Stat(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("snapshot %s: %.2f MB, stamped at seq %d\n",
		out, float64(info.Size())/(1<<20), rep.Head)

	reclaimed, err := eng.WAL().Checkpoint(rep.Head)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := eng.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wal: reclaimed %d of %d segments covered by the new snapshot\n", reclaimed, rep.Segments)
}

func printTreeStats(s iptree.Stats) {
	fmt.Printf("tree: %d nodes, %d leaves, height %d, rho %.2f (max %d), fanout %.2f, superior doors %.2f (max %d)\n",
		s.Nodes, s.Leaves, s.Height, s.AvgAccessDoors, s.MaxAccessDoors, s.AvgFanout, s.AvgSuperiorDoors, s.MaxSuperiorDoors)
}

func printBuildTimings(bt iptree.BuildTimings) {
	fmt.Printf("phases: leaves %v, hierarchy %v, leaf matrices %v, non-leaf matrices %v",
		bt.Leaves.Round(time.Microsecond), bt.Hierarchy.Round(time.Microsecond),
		bt.LeafMatrices.Round(time.Microsecond), bt.NonLeafMatrices.Round(time.Microsecond))
	if bt.VIPMaterialise > 0 {
		fmt.Printf(", VIP materialisation %v", bt.VIPMaterialise.Round(time.Microsecond))
	}
	fmt.Println()
}
