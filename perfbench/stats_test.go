package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{2.5, 0.5}, [3]float64{0, 1.5, 3}},
		{[]float64{1, 1, 2, 3, 5, 8, 13}, [3]float64{1, 3, 8}},
	}
	for _, c := range cases {
		got, ok := quartiles(c.xs)
		if !ok {
			t.Fatalf("quartiles(%v) not ok", c.xs)
		}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value must not be ok")
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	// 100 samples: the 90th is the 90th smallest and 10 lie above it.
	if v, ok := tailPercentile(seq(100), 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %t; want 90, true", v, ok)
	}
	// 99 samples: rank ceil(89.1) = 90 leaves 9 above it.
	if v, ok := tailPercentile(seq(99), 90); ok || v != 90 {
		t.Errorf("p90 of 1..99 = %v, %t; want 90, false", v, ok)
	}
	if _, ok := tailPercentile(seq(1000), 99); !ok {
		t.Error("p99 of 1000 samples has 10 beyond it")
	}
	if _, ok := tailPercentile(nil, 50); ok {
		t.Error("no samples cannot give a percentile")
	}
}

func TestSplitHitMiss(t *testing.T) {
	rs := []request{
		{planHit: true, served: true, ms: 5},
		{planHit: false, served: false, ms: 100},
		{planHit: true, served: false, ms: 90}, // planned hit that computed
		{planHit: false, served: true, ms: 4},  // planned miss served from cache
		{planHit: false, served: false, ms: 110},
	}
	hits, misses, mismatched := splitHitMiss(rs)
	if len(hits) != 2 || hits[0] != 5 || hits[1] != 90 {
		t.Errorf("hits = %v, want [5 90] (split by plan)", hits)
	}
	if len(misses) != 3 || misses[0] != 100 || misses[1] != 4 || misses[2] != 110 {
		t.Errorf("misses = %v, want [100 4 110]", misses)
	}
	if mismatched != 2 {
		t.Errorf("mismatched = %d, want 2", mismatched)
	}
}
