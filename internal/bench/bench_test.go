package bench

import (
	"testing"

	"viptree/internal/venuegen"
)

func TestWorkloadGenerators(t *testing.T) {
	v := venuegen.PaperExample()
	pairs := Pairs(v, 25, 1)
	if len(pairs) != 25 {
		t.Fatalf("Pairs returned %d", len(pairs))
	}
	points := Points(v, 10, 2)
	if len(points) != 10 {
		t.Fatalf("Points returned %d", len(points))
	}
	for _, p := range points {
		if int(p.Partition) >= v.NumPartitions() {
			t.Fatal("point outside venue")
		}
	}
	buckets := BucketedPairs(v, 5, 4, 3)
	if len(buckets) != 5 {
		t.Fatalf("BucketedPairs returned %d buckets", len(buckets))
	}
	nonEmpty := 0
	for _, b := range buckets {
		if len(b) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("expected at least 2 non-empty distance buckets, got %d", nonEmpty)
	}
}
