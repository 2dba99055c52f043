package iptree

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"viptree/internal/index"
	"viptree/internal/model"
	"viptree/internal/venuegen"
)

// batchWorkload draws a mixed batch: clustered sources, uniform pairs,
// same-partition pairs and duplicated pairs.
func batchWorkload(v *model.Venue, n int, seed int64) []index.LocationPair {
	rng := rand.New(rand.NewSource(seed))
	clusters := make([]model.Location, 1+rng.Intn(4))
	for i := range clusters {
		clusters[i] = v.RandomLocation(rng)
	}
	out := make([]index.LocationPair, n)
	for i := range out {
		switch rng.Intn(5) {
		case 0: // clustered source
			out[i] = index.LocationPair{S: clusters[rng.Intn(len(clusters))], T: v.RandomLocation(rng)}
		case 1: // same partition
			l := v.RandomLocation(rng)
			out[i] = index.LocationPair{S: l, T: model.Location{Partition: l.Partition, Point: l.Point}}
		case 2: // duplicate of an earlier pair
			if i > 0 {
				out[i] = out[rng.Intn(i)]
				continue
			}
			fallthrough
		default: // uniform
			out[i] = index.LocationPair{S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
		}
	}
	return out
}

// checkBatchMatches runs DistanceBatch at several worker counts and requires
// every result to be bit-identical to the per-pair Distance call.
func checkBatchMatches(t *testing.T, b index.DistanceBatcher, pairs []index.LocationPair) {
	t.Helper()
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = b.Distance(p.S, p.T)
	}
	for _, workers := range []int{1, 2, 7} {
		got := make([]float64, len(pairs))
		b.DistanceBatch(pairs, got, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: DistanceBatch(workers=%d)[%d] = %v, want %v (pair %v -> %v)",
					b.Name(), workers, i, got[i], want[i], pairs[i].S, pairs[i].T)
			}
		}
	}
}

// TestQuickDistanceBatchMatchesDistance is the central property of the
// batched path: over random venues and mixed batches, DistanceBatch is
// element-wise bit-identical to per-pair Distance at any worker count, for
// both trees.
func TestQuickDistanceBatchMatchesDistance(t *testing.T) {
	f := func(seed uint64, qseed uint16) bool {
		v := randomVenue(seed % 1000)
		tree := MustBuildIPTree(v, Options{})
		vt := NewVIPTree(tree)
		pairs := batchWorkload(v, 40, int64(qseed))
		for _, b := range []index.DistanceBatcher{tree, vt} {
			want := make([]float64, len(pairs))
			for i, p := range pairs {
				want[i] = b.Distance(p.S, p.T)
			}
			for _, workers := range []int{1, 3} {
				got := make([]float64, len(pairs))
				b.DistanceBatch(pairs, got, workers)
				for i := range want {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDistanceBatchCampus pins the property on a multi-building campus venue
// (distinct leaves per building, deep LCAs) with a larger batch.
func TestDistanceBatchCampus(t *testing.T) {
	v := venuegen.MustCampus(venuegen.CampusConfig{Name: "batch-campus", Buildings: 4, Seed: 11})
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	pairs := batchWorkload(v, 300, 7)
	checkBatchMatches(t, tree, pairs)
	checkBatchMatches(t, vt, pairs)
}

// TestDistanceBatchClustered pins the property on a clustered batch: few
// distinct sources, many targets, so many pairs share a source leaf.
func TestDistanceBatchClustered(t *testing.T) {
	v := venuegen.Menzies(venuegen.ScaleSmall)
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	rng := rand.New(rand.NewSource(9))
	srcs := make([]model.Location, 4)
	for i := range srcs {
		srcs[i] = v.RandomLocation(rng)
	}
	pairs := make([]index.LocationPair, 256)
	for i := range pairs {
		pairs[i] = index.LocationPair{S: srcs[i%len(srcs)], T: v.RandomLocation(rng)}
	}
	checkBatchMatches(t, tree, pairs)
	checkBatchMatches(t, vt, pairs)
}

// TestDistanceBatchEdgeCases covers the degenerate inputs: empty batch,
// single pair, more workers than queries, zero and negative worker counts,
// and an output slice longer than the batch.
func TestDistanceBatchEdgeCases(t *testing.T) {
	v := randomVenue(5)
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	rng := rand.New(rand.NewSource(1))
	one := []index.LocationPair{{S: v.RandomLocation(rng), T: v.RandomLocation(rng)}}
	for _, b := range []index.DistanceBatcher{tree, vt} {
		// Empty batch: no panic, no writes.
		b.DistanceBatch(nil, nil, 4)
		b.DistanceBatch([]index.LocationPair{}, []float64{}, 0)
		want := b.Distance(one[0].S, one[0].T)
		for _, workers := range []int{-3, 0, 1, 64} {
			out := []float64{-1, -7}
			b.DistanceBatch(one, out, workers)
			if out[0] != want {
				t.Fatalf("%s: workers=%d got %v, want %v", b.Name(), workers, out[0], want)
			}
			if out[1] != -7 {
				t.Fatalf("%s: workers=%d wrote past the batch: out[1]=%v", b.Name(), workers, out[1])
			}
		}
	}
}

// TestDistanceBatchConcurrent checks that concurrent DistanceBatch calls on
// one shared tree are safe (the scratch pool must not leak state between
// callers). Run with -race in CI.
func TestDistanceBatchConcurrent(t *testing.T) {
	v := randomVenue(21)
	tree := MustBuildIPTree(v, Options{})
	vt := NewVIPTree(tree)
	pairs := batchWorkload(v, 120, 3)
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = vt.Distance(p.S, p.T)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, len(pairs))
			vt.DistanceBatch(pairs, out, 1+g%3)
			for i := range want {
				if out[i] != want[i] {
					errs <- "concurrent DistanceBatch mismatch"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
