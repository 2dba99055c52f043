package bench

import (
	"fmt"
	"strings"
	"time"

	"viptree/internal/baseline/distaware"
	"viptree/internal/baseline/distmatrix"
	"viptree/internal/baseline/gtree"
	"viptree/internal/baseline/road"
	"viptree/internal/iptree"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// This file drives the reproduction of every table and figure of the paper's
// evaluation (Section 4). Each ExperimentX function returns a Table whose
// rows mirror the series the paper plots; cmd/experiments runs them and
// prints the tables.

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table as aligned text.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config controls how heavy an experiment run is.
type Config struct {
	// Scale selects the preset venue sizes (tiny / small / full).
	Scale venuegen.Scale
	// Pairs is the number of shortest-distance/path queries per data point
	// (the paper uses 10,000).
	Pairs int
	// Points is the number of kNN/range query points per data point.
	Points int
	// Objects is the default object-set size (the paper's default is 50).
	Objects int
	// K is the default k for kNN queries (the paper's default is 5).
	K int
	// RangeMeters is the default range radius (the paper's default is 100).
	RangeMeters float64
	// SkipDistMx skips the distance-matrix baseline (its O(D²)
	// construction is infeasible for the large venues, as in the paper).
	SkipDistMx bool
	// SkipSlow skips the G-tree and ROAD baselines (useful at full scale
	// where their construction dominates the run time).
	SkipSlow bool
	// VenueNames restricts the venue set; nil selects the paper's six
	// venues MC, MC-2, Men, Men-2, CL, CL-2.
	VenueNames []string
	// Seed drives workload generation.
	Seed int64
}

// DefaultConfig returns a configuration sized for the given scale.
func DefaultConfig(scale venuegen.Scale) Config {
	cfg := Config{
		Scale:       scale,
		Pairs:       200,
		Points:      50,
		Objects:     50,
		K:           5,
		RangeMeters: 100,
		Seed:        1,
	}
	if scale == venuegen.ScaleFull {
		cfg.Pairs = 1000
		cfg.Points = 100
	}
	return cfg
}

// NamedVenue is a venue of the evaluation with its paper name.
type NamedVenue struct {
	Name  string
	Venue *model.Venue
}

// Venues builds the evaluation venues for the configuration. The names match
// Table 2: MC, MC-2, Men, Men-2, CL, CL-2.
func (c Config) Venues() []NamedVenue {
	names := c.VenueNames
	if len(names) == 0 {
		names = []string{"MC", "MC-2", "Men", "Men-2", "CL", "CL-2"}
	}
	var out []NamedVenue
	for _, n := range names {
		out = append(out, NamedVenue{Name: n, Venue: buildVenue(n, c.Scale)})
	}
	return out
}

func buildVenue(name string, scale venuegen.Scale) *model.Venue {
	switch name {
	case "MC":
		return venuegen.MelbourneCentral(scale)
	case "MC-2":
		return venuegen.MustReplicate(venuegen.MelbourneCentral(scale), 2, 0)
	case "Men":
		return venuegen.Menzies(scale)
	case "Men-2":
		return venuegen.MustReplicate(venuegen.Menzies(scale), 2, 0)
	case "CL":
		return venuegen.Clayton(scale)
	case "CL-2":
		return venuegen.MustReplicate(venuegen.Clayton(scale), 2, 0)
	default:
		panic(fmt.Sprintf("bench: unknown venue %q", name))
	}
}

// competitor bundles one index with its query functions.
type competitor struct {
	name     string
	distance func(s, t model.Location) float64
	path     func(s, t model.Location) (float64, []model.DoorID)
	knn      func(objects []model.Location) KNNFunc
	rangeQ   func(objects []model.Location) RangeFunc
	buildDur time.Duration
	memory   int64
}

// buildCompetitors constructs every index of the evaluation on a venue.
func buildCompetitors(v *model.Venue, c Config) []competitor {
	var out []competitor

	start := time.Now()
	ip := iptree.MustBuildIPTree(v, iptree.Options{})
	ipDur := time.Since(start)
	out = append(out, competitor{
		name:     ip.Name(),
		distance: ip.Distance,
		path:     ip.Path,
		knn: func(objs []model.Location) KNNFunc {
			oi := ip.IndexObjects(objs)
			return func(q model.Location, k int) int { return len(oi.KNN(q, k)) }
		},
		rangeQ: func(objs []model.Location) RangeFunc {
			oi := ip.IndexObjects(objs)
			return func(q model.Location, r float64) int { return len(oi.Range(q, r)) }
		},
		buildDur: ipDur,
		memory:   ip.MemoryBytes(),
	})

	start = time.Now()
	vip := iptree.NewVIPTree(ip)
	vipDur := ipDur + time.Since(start)
	out = append(out, competitor{
		name:     vip.Name(),
		distance: vip.Distance,
		path:     vip.Path,
		knn: func(objs []model.Location) KNNFunc {
			oi := vip.IndexObjects(objs)
			return func(q model.Location, k int) int { return len(oi.KNN(q, k)) }
		},
		rangeQ: func(objs []model.Location) RangeFunc {
			oi := vip.IndexObjects(objs)
			return func(q model.Location, r float64) int { return len(oi.Range(q, r)) }
		},
		buildDur: vipDur,
		memory:   vip.MemoryBytes(),
	})

	da := distaware.New(v)
	out = append(out, competitor{
		name:     da.Name(),
		distance: da.Distance,
		path:     da.Path,
		knn: func(objs []model.Location) KNNFunc {
			ix := distaware.New(v).IndexObjects(objs)
			return func(q model.Location, k int) int { return len(ix.KNN(q, k)) }
		},
		rangeQ: func(objs []model.Location) RangeFunc {
			ix := distaware.New(v).IndexObjects(objs)
			return func(q model.Location, r float64) int { return len(ix.Range(q, r)) }
		},
		buildDur: 0,
		memory:   da.MemoryBytes(),
	})

	if !c.SkipSlow {
		start = time.Now()
		gt := gtree.Build(v, gtree.Options{})
		gtDur := time.Since(start)
		out = append(out, competitor{
			name:     gt.Name(),
			distance: gt.Distance,
			path:     gt.Path,
			knn: func(objs []model.Location) KNNFunc {
				oi := gt.IndexObjects(objs)
				return func(q model.Location, k int) int { return len(oi.KNN(q, k)) }
			},
			rangeQ: func(objs []model.Location) RangeFunc {
				oi := gt.IndexObjects(objs)
				return func(q model.Location, r float64) int { return len(oi.Range(q, r)) }
			},
			buildDur: gtDur,
			memory:   gt.MemoryBytes(),
		})

		start = time.Now()
		rd := road.Build(v, road.Options{})
		rdDur := time.Since(start)
		out = append(out, competitor{
			name:     rd.Name(),
			distance: rd.Distance,
			path:     rd.Path,
			knn: func(objs []model.Location) KNNFunc {
				ix := road.Build(v, road.Options{}).IndexObjects(objs)
				return func(q model.Location, k int) int { return len(ix.KNN(q, k)) }
			},
			rangeQ: func(objs []model.Location) RangeFunc {
				ix := road.Build(v, road.Options{}).IndexObjects(objs)
				return func(q model.Location, r float64) int { return len(ix.Range(q, r)) }
			},
			buildDur: rdDur,
			memory:   rd.MemoryBytes(),
		})
	}

	if !c.SkipDistMx {
		start = time.Now()
		dm := distmatrix.Build(v, true)
		dmDur := time.Since(start)
		out = append(out, competitor{
			name:     dm.Name(),
			distance: dm.Distance,
			path:     dm.Path,
			knn: func(objs []model.Location) KNNFunc {
				oi := dm.IndexObjects(objs)
				return func(q model.Location, k int) int { return len(oi.KNN(q, k)) }
			},
			rangeQ: func(objs []model.Location) RangeFunc {
				oi := dm.IndexObjects(objs)
				return func(q model.Location, r float64) int { return len(oi.Range(q, r)) }
			},
			buildDur: dmDur,
			memory:   dm.MemoryBytes(),
		})
	}
	return out
}

func fmtMicros(us float64) string { return fmt.Sprintf("%.2f", us) }
func fmtMB(bytes int64) string    { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }

// Table1 reports the structural quantities of Table 1's complexity analysis
// (ρ, f, M, D, α, height) measured on the generated venues.
func Table1(c Config) Table {
	t := Table{
		Title:  "Table 1 — structural parameters of the complexity analysis",
		Header: []string{"venue", "doors D", "leaves M", "height", "avg access doors (rho)", "max", "avg fanout f", "avg superior doors", "max"},
	}
	for _, nv := range c.Venues() {
		tree := iptree.MustBuildIPTree(nv.Venue, iptree.Options{})
		s := tree.TreeStats()
		t.Rows = append(t.Rows, []string{
			nv.Name,
			fmt.Sprintf("%d", nv.Venue.NumDoors()),
			fmt.Sprintf("%d", s.Leaves),
			fmt.Sprintf("%d", s.Height),
			fmt.Sprintf("%.2f", s.AvgAccessDoors),
			fmt.Sprintf("%d", s.MaxAccessDoors),
			fmt.Sprintf("%.2f", s.AvgFanout),
			fmt.Sprintf("%.2f", s.AvgSuperiorDoors),
			fmt.Sprintf("%d", s.MaxSuperiorDoors),
		})
	}
	t.Notes = append(t.Notes, "paper: rho and f below 4 on average, superior doors at most ~8")
	return t
}

// Table2 reports the venue statistics of Table 2.
func Table2(c Config) Table {
	t := Table{
		Title:  "Table 2 — indoor venues used in experiments",
		Header: []string{"venue", "#doors", "#rooms", "#edges", "#floors", "max out-degree"},
	}
	for _, nv := range c.Venues() {
		s := nv.Venue.ComputeStats()
		t.Rows = append(t.Rows, []string{
			nv.Name,
			fmt.Sprintf("%d", s.Doors),
			fmt.Sprintf("%d", s.Partitions),
			fmt.Sprintf("%d", s.D2DEdges),
			fmt.Sprintf("%d", s.Floors),
			fmt.Sprintf("%d", s.MaxOutDegree),
		})
	}
	return t
}

// Fig7 reports the effect of the minimum degree t on VIP-Tree construction
// cost and query time (Fig 7a and 7b) on the campus venue.
func Fig7(c Config) Table {
	t := Table{
		Title:  "Fig 7 — effect of minimum degree t on VIP-Tree (campus venue)",
		Header: []string{"t", "memory (MB)", "indexing time (ms)", "shortest distance (us)", "kNN (us)"},
	}
	v := buildVenue("CL", c.Scale)
	pairs := Pairs(v, c.Pairs, c.Seed)
	points := Points(v, c.Points, c.Seed+1)
	objs := Objects(v, c.Objects, c.Seed+2)
	for _, deg := range []int{2, 10, 20, 60, 100} {
		start := time.Now()
		vip := iptree.MustBuildVIPTree(v, iptree.Options{MinDegree: deg})
		buildDur := time.Since(start)
		distM := MeasureDistance(vip, pairs)
		oi := vip.IndexObjects(objs)
		knnM := MeasureKNN(func(q model.Location, k int) int { return len(oi.KNN(q, k)) }, points, c.K)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", deg),
			fmtMB(vip.MemoryBytes()),
			fmt.Sprintf("%d", buildDur.Milliseconds()),
			fmtMicros(distM.PerQueryMicros()),
			fmtMicros(knnM.PerQueryMicros()),
		})
	}
	t.Notes = append(t.Notes, "paper: construction cost grows with t; shortest-distance time flat; kNN time grows with t")
	return t
}

// Fig8 reports index construction time (Fig 8a) and index size (Fig 8b).
func Fig8(c Config) Table {
	t := Table{
		Title:  "Fig 8 — indexing cost (construction time ms / index size MB)",
		Header: []string{"venue", "index", "construction (ms)", "size (MB)"},
	}
	for _, nv := range c.Venues() {
		for _, comp := range buildCompetitors(nv.Venue, c) {
			t.Rows = append(t.Rows, []string{
				nv.Name, comp.name,
				fmt.Sprintf("%d", comp.buildDur.Milliseconds()),
				fmtMB(comp.memory),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: DistMx slowest/largest by orders of magnitude; IP/VIP build in <2 minutes even for CL-2")
	return t
}

// Fig9a reports the number of door pairs considered per query by DistMx with
// and without the no-through optimisation, and the superior-door pairs
// considered by VIP-Tree.
func Fig9a(c Config) Table {
	t := Table{
		Title:  "Fig 9a — door pairs considered per shortest-distance query",
		Header: []string{"venue", "DistMx--", "DistMx", "VIP-Tree (superior pairs)"},
	}
	for _, nv := range c.Venues() {
		if c.SkipDistMx {
			break
		}
		v := nv.Venue
		pairs := Pairs(v, c.Pairs, c.Seed)
		noOpt := distmatrix.Build(v, false)
		opt := distmatrix.Build(v, true)
		for _, p := range pairs {
			noOpt.Distance(p.S, p.T)
			opt.Distance(p.S, p.T)
		}
		// VIP-Tree considers |SUP(P(s))| x |SUP(P(t))| pairs.
		tree := iptree.MustBuildIPTree(v, iptree.Options{})
		var supPairs float64
		for _, p := range pairs {
			supPairs += float64(len(tree.SuperiorDoors(p.S.Partition)) * len(tree.SuperiorDoors(p.T.Partition)))
		}
		supPairs /= float64(len(pairs))
		t.Rows = append(t.Rows, []string{
			nv.Name,
			fmt.Sprintf("%.2f", noOpt.AvgPairsPerQuery()),
			fmt.Sprintf("%.2f", opt.AvgPairsPerQuery()),
			fmt.Sprintf("%.2f", supPairs),
		})
	}
	t.Notes = append(t.Notes, "paper: optimisation cuts pairs from ~50-65 to ~9-12; VIP considers slightly fewer pairs")
	return t
}

// Fig9b reports shortest-distance query time for every algorithm and venue.
func Fig9b(c Config) Table {
	return queryTimeTable(c, "Fig 9b — shortest distance query time (us)", func(comp competitor, pairs []QueryPair) float64 {
		return MeasureDistance(struct {
			distanceFn
		}{comp.distance}, pairs).PerQueryMicros()
	})
}

// Fig10a reports shortest-path query time for every algorithm and venue.
func Fig10a(c Config) Table {
	return queryTimeTable(c, "Fig 10a — shortest path query time (us)", func(comp competitor, pairs []QueryPair) float64 {
		return MeasurePath(struct {
			pathFn
		}{comp.path}, pairs).PerQueryMicros()
	})
}

// distanceFn and pathFn adapt bare functions to the Measure interfaces.
type distanceFn func(s, t model.Location) float64

func (f distanceFn) Distance(s, t model.Location) float64 { return f(s, t) }

type pathFn func(s, t model.Location) (float64, []model.DoorID)

func (f pathFn) Path(s, t model.Location) (float64, []model.DoorID) { return f(s, t) }

func queryTimeTable(c Config, title string, measure func(competitor, []QueryPair) float64) Table {
	t := Table{Title: title, Header: []string{"venue", "index", "per-query (us)"}}
	for _, nv := range c.Venues() {
		pairs := Pairs(nv.Venue, c.Pairs, c.Seed)
		for _, comp := range buildCompetitors(nv.Venue, c) {
			us := measure(comp, pairs)
			t.Rows = append(t.Rows, []string{nv.Name, comp.name, fmtMicros(us)})
		}
	}
	t.Notes = append(t.Notes, "paper: VIP-Tree within ~2x of DistMx; IP-Tree next; DistAw/G-tree/ROAD orders of magnitude slower")
	return t
}

// Fig10b reports shortest-path query time per distance bucket Q1..Q5 on the
// Men-2 venue (the largest venue for which DistMx is feasible).
func Fig10b(c Config) Table {
	t := Table{
		Title:  "Fig 10b — effect of distance between s and t (Men-2, us per query)",
		Header: []string{"bucket", "index", "per-query (us)"},
	}
	v := buildVenue("Men-2", c.Scale)
	buckets := BucketedPairs(v, 5, c.Pairs/5+1, c.Seed)
	comps := buildCompetitors(v, c)
	for bi, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		for _, comp := range comps {
			m := MeasurePath(struct{ pathFn }{comp.path}, bucket)
			t.Rows = append(t.Rows, []string{fmt.Sprintf("Q%d", bi+1), comp.name, fmtMicros(m.PerQueryMicros())})
		}
	}
	t.Notes = append(t.Notes, "paper: DistAw degrades ~100x from Q1 to Q5; IP-Tree grows slightly up to Q3; VIP-Tree and DistMx flat")
	return t
}

// Fig11a reports kNN query time versus k on the Men-2 venue.
func Fig11a(c Config) Table {
	t := Table{
		Title:  "Fig 11a — kNN query time vs k (us per query)",
		Header: []string{"k", "index", "per-query (us)"},
	}
	v := buildVenue("Men-2", c.Scale)
	points := Points(v, c.Points, c.Seed)
	objs := Objects(v, c.Objects, c.Seed+1)
	comps := buildCompetitors(v, c)
	for _, k := range []int{1, 5, 10} {
		for _, comp := range comps {
			knn := comp.knn(objs)
			m := MeasureKNN(knn, points, k)
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", k), comp.name, fmtMicros(m.PerQueryMicros())})
		}
	}
	t.Notes = append(t.Notes, "paper: cost grows mildly with k for all algorithms; IP/VIP orders of magnitude faster")
	return t
}

// Fig11b reports kNN query time versus the number of objects.
func Fig11b(c Config) Table {
	t := Table{
		Title:  "Fig 11b — kNN query time vs number of objects (us per query)",
		Header: []string{"#objects", "index", "per-query (us)"},
	}
	v := buildVenue("Men-2", c.Scale)
	points := Points(v, c.Points, c.Seed)
	comps := buildCompetitors(v, c)
	for _, n := range []int{10, 50, 100, 500} {
		objs := Objects(v, n, c.Seed+int64(n))
		for _, comp := range comps {
			knn := comp.knn(objs)
			m := MeasureKNN(knn, points, c.K)
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), comp.name, fmtMicros(m.PerQueryMicros())})
		}
	}
	t.Notes = append(t.Notes, "paper: cost decreases for all algorithms as the object set grows")
	return t
}

// Fig11c reports kNN query time across venues.
func Fig11c(c Config) Table {
	t := Table{
		Title:  "Fig 11c — kNN query time across venues (us per query)",
		Header: []string{"venue", "index", "per-query (us)"},
	}
	for _, nv := range c.Venues() {
		points := Points(nv.Venue, c.Points, c.Seed)
		objs := Objects(nv.Venue, c.Objects, c.Seed+1)
		for _, comp := range buildCompetitors(nv.Venue, c) {
			knn := comp.knn(objs)
			m := MeasureKNN(knn, points, c.K)
			t.Rows = append(t.Rows, []string{nv.Name, comp.name, fmtMicros(m.PerQueryMicros())})
		}
	}
	return t
}

// Fig11d reports range query time across venues.
func Fig11d(c Config) Table {
	t := Table{
		Title:  "Fig 11d — range query time across venues (us per query)",
		Header: []string{"venue", "index", "per-query (us)"},
	}
	for _, nv := range c.Venues() {
		points := Points(nv.Venue, c.Points, c.Seed)
		objs := Objects(nv.Venue, c.Objects, c.Seed+1)
		for _, comp := range buildCompetitors(nv.Venue, c) {
			rq := comp.rangeQ(objs)
			m := MeasureRange(rq, points, c.RangeMeters)
			t.Rows = append(t.Rows, []string{nv.Name, comp.name, fmtMicros(m.PerQueryMicros())})
		}
	}
	return t
}

// Ablations compares the paper's design choices against naive variants:
// superior doors vs all doors (Definition 2) and the access-door-minimising
// merge of Algorithm 1 vs an arbitrary merge.
func Ablations(c Config) Table {
	t := Table{
		Title:  "Ablations — design choices of the IP-Tree/VIP-Tree",
		Header: []string{"venue", "variant", "shortest distance (us)", "avg access doors (rho)"},
	}
	for _, nv := range c.Venues() {
		pairs := Pairs(nv.Venue, c.Pairs, c.Seed)
		variants := []struct {
			name string
			opts iptree.Options
		}{
			{"full design", iptree.Options{}},
			{"no superior doors", iptree.Options{DisableSuperiorDoors: true}},
			{"naive merge", iptree.Options{NaiveMerge: true}},
		}
		for _, variant := range variants {
			vip := iptree.MustBuildVIPTree(nv.Venue, variant.opts)
			m := MeasureDistance(vip, pairs)
			s := vip.TreeStats()
			t.Rows = append(t.Rows, []string{nv.Name, variant.name, fmtMicros(m.PerQueryMicros()), fmt.Sprintf("%.2f", s.AvgAccessDoors)})
		}
	}
	return t
}

// All returns every experiment keyed by its identifier.
func All() map[string]func(Config) Table {
	return map[string]func(Config) Table{
		"table1":    Table1,
		"table2":    Table2,
		"fig7":      Fig7,
		"fig8":      Fig8,
		"fig9a":     Fig9a,
		"fig9b":     Fig9b,
		"fig10a":    Fig10a,
		"fig10b":    Fig10b,
		"fig11a":    Fig11a,
		"fig11b":    Fig11b,
		"fig11c":    Fig11c,
		"fig11d":    Fig11d,
		"ablations": Ablations,
	}
}
