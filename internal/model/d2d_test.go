package model_test

import (
	"math"
	"math/rand"
	"testing"

	"viptree/internal/bench"
	"viptree/internal/geom"
	"viptree/internal/graph"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// dists counts what checkLocationDists compared.
type dists struct {
	within, beyond, samePartition int
}

// checkLocationDists runs LocationDists from every source to ts, unbounded
// and at bound, and compares each entry with its own LocationSearch: bit for
// bit when the exact distance is within the bound, above the bound
// otherwise.
func checkLocationDists(t *testing.T, v *model.Venue, srcs, ts []model.Location, bound float64) dists {
	t.Helper()
	d2d := v.D2D()
	var sc, one graph.SearchScratch
	want := make([]float64, len(ts))
	out := make([]float64, len(ts))
	var c dists
	for si, s := range srcs {
		for i, l := range ts {
			want[i], _ = d2d.LocationSearch(&one, s, l)
			if l.Partition == s.Partition {
				c.samePartition++
			}
		}
		for _, b := range []float64{graph.Infinity, bound} {
			for i := range out {
				out[i] = math.NaN() // every entry must be written
			}
			d2d.LocationDists(&sc, s, ts, out, b)
			for i := range ts {
				switch {
				case want[i] <= b:
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Fatalf("source %d, location %d, bound %v: LocationDists %v, LocationSearch %v", si, i, b, out[i], want[i])
					}
					c.within++
				case !(out[i] > b):
					t.Fatalf("source %d, location %d, bound %v: LocationDists %v for a location at %v", si, i, b, out[i], want[i])
				default:
					c.beyond++
				}
			}
		}
	}
	return c
}

// withSourcePartitions returns ts plus one location in the partition of each
// of the first n sources, so that some locations share the source's
// partition.
func withSourcePartitions(v *model.Venue, ts, srcs []model.Location, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	out := append([]model.Location(nil), ts...)
	for _, s := range srcs[:n] {
		out = append(out, v.RandomLocationIn(s.Partition, rng))
	}
	return out
}

// TestLocationDistsMatchesLocationSearch checks the one multi-target search
// of LocationDists against one LocationSearch per location on Menzies full
// (the 250 objects of the bench fixture; its leaves hold up to 109 doors), a
// random building and a campus with outdoor edges. Each bound leaves some
// locations beyond it.
func TestLocationDistsMatchesLocationSearch(t *testing.T) {
	venues := []struct {
		name    string
		venue   func() *model.Venue
		objects int
		bound   float64
	}{
		{"menzies-full", func() *model.Venue { return venuegen.Menzies(venuegen.ScaleFull) }, 250, 100},
		{"building", func() *model.Venue {
			return venuegen.MustBuilding(venuegen.BuildingConfig{
				Name: "random", Floors: 3, HallwaysPerFloor: 2, RoomsPerHallway: 9,
				DoubleDoorFraction: 0.3, Staircases: 2, Lifts: 1, Entrances: 2, Seed: 5,
			})
		}, 120, 25},
		{"campus", func() *model.Venue { return venuegen.Clayton(venuegen.ScaleTiny) }, 120, 100},
	}
	for _, c := range venues {
		t.Run(c.name, func(t *testing.T) {
			v := c.venue()
			srcs := bench.Points(v, 20, 21)
			ts := withSourcePartitions(v, bench.Objects(v, c.objects, 7), srcs, 10, 3)
			got := checkLocationDists(t, v, srcs, ts, c.bound)
			if got.samePartition == 0 || got.beyond == 0 || got.within == 0 {
				t.Fatalf("comparisons %+v: every case must occur", got)
			}
		})
	}
}

// TestLocationDistsEdgeCases covers locations in the source's partition and
// location sets that need no search, on a floor of three rooms off a
// hallway.
func TestLocationDistsEdgeCases(t *testing.T) {
	b := model.NewBuilder("three-rooms")
	hall := b.AddPartition("hallway", model.ClassHallway, geom.NewRect(0, 10, 30, 14, 0), 0)
	r1 := b.AddPartition("R1", model.ClassRoom, geom.NewRect(0, 14, 10, 20, 0), 0)
	r2 := b.AddPartition("R2", model.ClassRoom, geom.NewRect(10, 14, 20, 20, 0), 0)
	r3 := b.AddPartition("R3", model.ClassRoom, geom.NewRect(20, 14, 30, 20, 0), 0)
	b.AddDoor("d1", geom.Point{X: 5, Y: 14}, r1, hall)
	b.AddDoor("d2", geom.Point{X: 15, Y: 14}, r2, hall)
	b.AddDoor("d3", geom.Point{X: 25, Y: 14}, r3, hall)
	v := b.MustBuild()
	at := func(p model.PartitionID, x, y float64) model.Location {
		return model.Location{Partition: p, Point: geom.Point{X: x, Y: y}}
	}
	s := at(r1, 2, 18)
	ts := []model.Location{at(r2, 12, 19), at(r3, 25, 17), at(r1, 8, 15), at(hall, 25, 12)}
	for _, bound := range []float64{graph.Infinity, 10} {
		got := checkLocationDists(t, v, []model.Location{s}, ts, bound)
		if got.samePartition != 1 {
			t.Fatalf("same-partition comparisons %+v, want 1", got)
		}
	}

	// With no location needing a door, no search runs: the scratch keeps
	// the search it held.
	var sc graph.SearchScratch
	for _, only := range [][]model.Location{nil, ts[2:3]} {
		sc.Reset(v.NumDoors())
		sc.Seed(0, 7)
		out := make([]float64, len(only))
		v.D2D().LocationDists(&sc, s, only, out, graph.Infinity)
		if sc.Dist(0) != 7 {
			t.Fatalf("LocationDists to %v ran a search", only)
		}
	}
}
