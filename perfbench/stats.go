package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

// quartiles returns the first, second and third quartiles of xs by the
// exclusive method, the default of Python's statistics.quantiles(xs, n=4),
// so spreads printed here match the ones computed over repeated runs. It
// needs at least two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	d := sorted(xs)
	n := len(d)
	if n < 2 {
		return q, false
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q, true
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	q, _ := quartiles(xs)
	return q[1]
}

// minBeyond is how many samples must lie above a tail percentile for it to
// be reported: fewer, and the percentile is one or two outliers.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-th percentile of xs (p in whole
// percent) and whether at least minBeyond samples lie above it.
func tailPercentile(xs []float64, p int) (float64, bool) {
	d := sorted(xs)
	n := len(d)
	if n == 0 {
		return 0, false
	}
	rank := (p*n + 99) / 100 // ceil(p*n/100), 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return d[rank-1], n-rank >= minBeyond
}

// request is one service request's outcome as the load generator saw it.
type request struct {
	planHit bool    // the load plan resubmitted a hot-set catalog
	served  bool    // the server reported the job as a cache hit
	ms      float64 // Submit until the result bytes were in hand
}

// splitHitMiss splits request latencies by the plan's label and counts the
// requests the server answered against the plan: a planned hit that
// computed, or a planned miss served from the cache.
func splitHitMiss(rs []request) (hits, misses []float64, mismatched int) {
	for _, r := range rs {
		if r.planHit {
			hits = append(hits, r.ms)
		} else {
			misses = append(misses, r.ms)
		}
		if r.planHit != r.served {
			mismatched++
		}
	}
	return hits, misses, mismatched
}
