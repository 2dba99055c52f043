// Package bench generates the query workloads of the paper's evaluation
// (Section 4): uniform and clustered query pairs, distance-bucketed pairs,
// query points and object sets. The root-level Go benchmarks, which
// reproduce the paper's tables and figures, and cmd/queryrunner and
// cmd/indexbuild draw their inputs from it.
package bench

import (
	"math/rand"

	"viptree/internal/model"
)

// QueryPair is one shortest-distance / shortest-path query.
type QueryPair struct {
	S, T model.Location
}

// Pairs generates n uniformly random source/target pairs (the paper uses
// 10,000 random pairs; benchmarks use fewer per iteration).
func Pairs(v *model.Venue, n int, seed int64) []QueryPair {
	rng := rand.New(rand.NewSource(seed))
	out := make([]QueryPair, n)
	for i := range out {
		out[i] = QueryPair{S: v.RandomLocation(rng), T: v.RandomLocation(rng)}
	}
	return out
}

// ClusteredPairs generates n pairs whose sources are drawn round-robin from
// k distinct locations and whose targets are uniform — the clustered-source
// workload (k fleet dispatchers, many destinations).
func ClusteredPairs(v *model.Venue, n, k int, seed int64) []QueryPair {
	rng := rand.New(rand.NewSource(seed))
	if k < 1 {
		k = 1
	}
	srcs := make([]model.Location, k)
	for i := range srcs {
		srcs[i] = v.RandomLocation(rng)
	}
	out := make([]QueryPair, n)
	for i := range out {
		out[i] = QueryPair{S: srcs[i%k], T: v.RandomLocation(rng)}
	}
	return out
}

// Points generates n uniformly random query points for kNN/range workloads.
func Points(v *model.Venue, n int, seed int64) []model.Location {
	rng := rand.New(rand.NewSource(seed))
	out := make([]model.Location, n)
	for i := range out {
		out[i] = v.RandomLocation(rng)
	}
	return out
}

// Objects generates n uniformly random objects (the paper places washrooms
// and synthetic object sets of 10–500 objects).
func Objects(v *model.Venue, n int, seed int64) []model.Location {
	return Points(v, n, seed)
}

// BucketedPairs generates query pairs grouped into `buckets` distance
// quintiles Q1..Qb (Fig 10b): pairs are drawn at random, their exact distance
// is computed with the D2D graph, and each pair is assigned to the bucket
// covering its distance. Generation stops when every bucket has perBucket
// pairs or the attempt budget is exhausted.
func BucketedPairs(v *model.Venue, buckets, perBucket int, seed int64) [][]QueryPair {
	rng := rand.New(rand.NewSource(seed))
	// Estimate dmax by sampling random pairs.
	dmax := 0.0
	for i := 0; i < 200; i++ {
		s, t := v.RandomLocation(rng), v.RandomLocation(rng)
		if d := v.D2D().LocationDist(s, t); d < 1e17 && d > dmax {
			dmax = d
		}
	}
	if dmax == 0 {
		dmax = 1
	}
	out := make([][]QueryPair, buckets)
	attempts := buckets * perBucket * 50
	for i := 0; i < attempts; i++ {
		full := true
		for _, b := range out {
			if len(b) < perBucket {
				full = false
				break
			}
		}
		if full {
			break
		}
		s, t := v.RandomLocation(rng), v.RandomLocation(rng)
		d := v.D2D().LocationDist(s, t)
		if d >= 1e17 {
			continue
		}
		b := int(float64(buckets) * d / (dmax * 1.0001))
		if b >= buckets {
			b = buckets - 1
		}
		if len(out[b]) < perBucket {
			out[b] = append(out[b], QueryPair{S: s, T: t})
		}
	}
	return out
}
