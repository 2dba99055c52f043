package iptree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// randomVenue generates a small random office building from a seed, so that
// the property tests below exercise many distinct topologies.
func randomVenue(seed uint64) *model.Venue {
	rng := rand.New(rand.NewSource(int64(seed)))
	cfg := venuegen.BuildingConfig{
		Name:               "prop",
		Floors:             1 + rng.Intn(4),
		HallwaysPerFloor:   1 + rng.Intn(2),
		RoomsPerHallway:    4 + rng.Intn(12),
		DoubleDoorFraction: rng.Float64() * 0.5,
		Staircases:         1 + rng.Intn(2),
		Lifts:              rng.Intn(2),
		Entrances:          1 + rng.Intn(2),
		Seed:               int64(seed),
	}
	return venuegen.MustBuilding(cfg)
}

// TestQuickVIPDistanceEqualsDijkstra is the central property of the whole
// index: for random venues and random location pairs, the VIP-Tree distance
// equals the exact Dijkstra distance on the D2D graph.
func TestQuickVIPDistanceEqualsDijkstra(t *testing.T) {
	f := func(seed uint64, q1, q2 uint16) bool {
		v := randomVenue(seed % 1000)
		vt := MustBuildVIPTree(v, Options{})
		rng := rand.New(rand.NewSource(int64(q1)<<16 | int64(q2)))
		s := v.RandomLocation(rng)
		d := v.RandomLocation(rng)
		got := vt.Distance(s, d)
		want := v.D2D().LocationDist(s, d)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickIPPathIsWalkable: for random venues, the path returned by the
// IP-Tree is a sequence of adjacent doors whose total length matches the
// distance.
func TestQuickIPPathIsWalkable(t *testing.T) {
	f := func(seed uint64, q uint16) bool {
		v := randomVenue(seed % 1000)
		tree := MustBuildIPTree(v, Options{})
		rng := rand.New(rand.NewSource(int64(q)))
		s := v.RandomLocation(rng)
		d := v.RandomLocation(rng)
		dist, doors := tree.Path(s, d)
		if s.Partition == d.Partition {
			return len(doors) == 0
		}
		total, err := walkedLength(v, s, d, doors)
		return err == nil && math.Abs(total-dist) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickKNNIsSortedAndConsistentWithRange: kNN results are sorted and the
// k-th distance bounds a range query that must return at least k objects.
func TestQuickKNNIsSortedAndConsistentWithRange(t *testing.T) {
	f := func(seed uint64, q uint16, kRaw uint8) bool {
		v := randomVenue(seed % 500)
		tree := MustBuildIPTree(v, Options{})
		rng := rand.New(rand.NewSource(int64(q) + 7))
		objs := make([]model.Location, 10)
		for i := range objs {
			objs[i] = v.RandomLocation(rng)
		}
		oi := tree.IndexObjects(objs)
		query := v.RandomLocation(rng)
		k := 1 + int(kRaw)%5
		res := oi.KNN(query, k)
		if len(res) != k {
			return false
		}
		for i := 1; i < len(res); i++ {
			if res[i].Dist < res[i-1].Dist {
				return false
			}
		}
		within := oi.Range(query, res[len(res)-1].Dist+1e-9)
		return len(within) >= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
