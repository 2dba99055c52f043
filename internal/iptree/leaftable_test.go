package iptree

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"viptree/internal/bench"
	"viptree/internal/geom"
	"viptree/internal/graph"
	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// TestLeafTableCellsExact builds every leaf's door table and checks each
// cell against a whole-graph Dijkstra search from the cell's row door:
// within 1e-9 relative, and Infinite exactly where the graph search reaches
// nothing. Menzies full has leaves of 100–109 doors, which randomVenue never
// builds (its leaves keep to 31 doors or fewer); the campus links buildings
// by outdoor edges, and outdoorShortcutVenue has one between two doors of
// one leaf. The cells that are not bit-equal to the graph search are
// logged.
func TestLeafTableCellsExact(t *testing.T) {
	venues := []struct {
		name  string
		venue func() *model.Venue
	}{
		{"menzies-full", func() *model.Venue { return venuegen.Menzies(venuegen.ScaleFull) }},
		{"mc-full", func() *model.Venue { return venuegen.MelbourneCentral(venuegen.ScaleFull) }},
		{"cl-small", func() *model.Venue { return venuegen.Clayton(venuegen.ScaleSmall) }},
		{"campus", func() *model.Venue {
			return venuegen.MustCampus(venuegen.CampusConfig{
				Name: "campus", Buildings: 5, GridColumns: 3, Jitter: true, Seed: 9,
				Building: venuegen.BuildingConfig{
					Floors: 2, HallwaysPerFloor: 2, RoomsPerHallway: 8,
					DoubleDoorFraction: 0.3, Staircases: 1, Lifts: 1, Entrances: 3,
				},
			})
		}},
		{"outdoor-shortcut", outdoorShortcutVenue},
		{"random-3", func() *model.Venue { return randomVenue(3) }},
		{"random-17", func() *model.Venue { return randomVenue(17) }},
		{"random-123", func() *model.Venue { return randomVenue(123) }},
	}
	for _, c := range venues {
		t.Run(c.name, func(t *testing.T) {
			v := c.venue()
			tree := MustBuildIPTree(v, Options{})
			g := v.D2D().Graph
			cells, unreachable, inexact, maxRel := 0, 0, 0, 0.0
			for leaf := range tree.doorsOfLeaf {
				lt := tree.leafTableOf(NodeID(leaf))
				for i, a := range lt.doors {
					want, _ := g.FromSource(int(a))
					for j, b := range lt.doors {
						got := lt.at(i, j)
						cells++
						if want[b] == graph.Infinity {
							unreachable++
							if got != Infinite {
								t.Fatalf("leaf %d: T[%d][%d] = %v for doors the graph does not connect", leaf, a, b, got)
							}
							continue
						}
						if math.Float64bits(got) == math.Float64bits(want[b]) {
							continue
						}
						inexact++
						rel := math.Abs(got-want[b]) / want[b]
						if !(rel <= 1e-9) {
							t.Fatalf("leaf %d: T[%d][%d] = %v, whole-graph search %v", leaf, a, b, got, want[b])
						}
						maxRel = max(maxRel, rel)
					}
				}
			}
			t.Logf("%d leaves, %d cells (%d unreachable): %d not bit-equal to the whole-graph search, largest relative difference %.2g",
				len(tree.doorsOfLeaf), cells, unreachable, inexact, maxRel)
		})
	}
}

// outdoorShortcutVenue is a hallway with three rooms whose two outer doors,
// 30 m apart along the hallway, are also joined by a 5 m outdoor edge.
// Neither door leads out of their leaf, so only the in-leaf search can find
// the shortcut. A second, unconnected pair of rooms makes a second leaf.
func outdoorShortcutVenue() *model.Venue {
	b := model.NewBuilder("outdoor-shortcut").AllowDisconnected()
	hall := b.AddPartition("hallway", model.ClassHallway, geom.NewRect(0, 10, 40, 14, 0), 0)
	r1 := b.AddPartition("R1", model.ClassRoom, geom.NewRect(0, 14, 10, 20, 0), 0)
	r2 := b.AddPartition("R2", model.ClassRoom, geom.NewRect(15, 14, 25, 20, 0), 0)
	r3 := b.AddPartition("R3", model.ClassRoom, geom.NewRect(30, 14, 40, 20, 0), 0)
	d1 := b.AddDoor("d1", geom.Point{X: 5, Y: 14}, r1, hall)
	b.AddDoor("d2", geom.Point{X: 20, Y: 14}, r2, hall)
	d3 := b.AddDoor("d3", geom.Point{X: 35, Y: 14}, r3, hall)
	b.AddOutdoorEdge(d1, d3, 5)
	r4 := b.AddPartition("R4", model.ClassRoom, geom.NewRect(100, 0, 110, 10, 0), 0)
	r5 := b.AddPartition("R5", model.ClassRoom, geom.NewRect(110, 0, 120, 10, 0), 0)
	b.AddDoor("d4", geom.Point{X: 110, Y: 5}, r4, r5)
	return b.MustBuild()
}

// TestLeafTableConcurrentFirstUse restores a VIP-Tree from snapshot bytes,
// so no door table exists yet, and has 8 goroutines run the same
// same-leaf Distance, Path and KNN queries at once. Every answer must equal
// a warm sequential tree's bit for bit, and afterwards every leaf the
// queries touched holds one published table that later queries keep.
func TestLeafTableConcurrentFirstUse(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleFull)
	warm := MustBuildVIPTree(v, Options{})
	var buf bytes.Buffer
	if err := warm.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	cold, err := DecodeVIPSnapshot(bytes.NewReader(buf.Bytes()), v)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := range cold.leafTables {
		if cold.leafTables[leaf].Load() != nil {
			t.Fatalf("restored tree holds a table for leaf %d before any query", leaf)
		}
	}
	pairs := sameLeafPairs(cold.Tree, v, 48, 5)
	objs := bench.Objects(v, 250, 7)
	points := bench.Points(v, 48, 21)
	warmOI, coldOI := warm.IndexObjects(objs), cold.IndexObjects(objs)

	type answer struct {
		dist  float64
		path  float64
		doors []model.DoorID
	}
	want := make([]answer, len(pairs))
	for i, p := range pairs {
		want[i].dist = warm.Distance(p[0], p[1])
		want[i].path, want[i].doors = warm.Path(p[0], p[1])
	}
	wantKNN := make([][]index.ObjectResult, len(points))
	for i, q := range points {
		wantKNN[i] = warmOI.KNN(q, 5)
	}

	sameResults := func(a, b []index.ObjectResult) bool {
		return slices.EqualFunc(a, b, func(x, y index.ObjectResult) bool {
			return x.ObjectID == y.ObjectID && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
		})
	}
	check := func(g int) {
		for i, p := range pairs {
			if d := cold.Distance(p[0], p[1]); math.Float64bits(d) != math.Float64bits(want[i].dist) {
				t.Errorf("goroutine %d pair %d: Distance %v, warm %v", g, i, d, want[i].dist)
			}
			d, doors := cold.Path(p[0], p[1])
			if math.Float64bits(d) != math.Float64bits(want[i].path) || !slices.Equal(doors, want[i].doors) {
				t.Errorf("goroutine %d pair %d: Path %v %v, warm %v %v", g, i, d, doors, want[i].path, want[i].doors)
			}
		}
		for i, q := range points {
			if got := coldOI.KNN(q, 5); !sameResults(got, wantKNN[i]) {
				t.Errorf("goroutine %d point %d: KNN %v, warm %v", g, i, got, wantKNN[i])
			}
		}
	}
	const goroutines = 8
	var start, done sync.WaitGroup
	start.Add(1)
	for g := range goroutines {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			check(g)
		}()
	}
	start.Done()
	done.Wait()

	published := make([]*leafTable, len(cold.leafTables))
	touched := 0
	for leaf := range cold.leafTables {
		published[leaf] = cold.leafTables[leaf].Load()
		if published[leaf] != nil {
			touched++
		}
	}
	for _, p := range pairs {
		if published[cold.Leaf(p[0].Partition)] == nil {
			t.Fatalf("leaf %d answered same-leaf queries without a published table", cold.Leaf(p[0].Partition))
		}
	}
	check(goroutines)
	for leaf := range cold.leafTables {
		if got := cold.leafTables[leaf].Load(); got != published[leaf] {
			t.Fatalf("leaf %d: a later query replaced its published table", leaf)
		}
	}
	t.Logf("%d of %d leaves hold a table", touched, len(cold.leafTables))
}
