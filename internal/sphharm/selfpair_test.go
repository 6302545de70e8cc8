package sphharm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestSelfPairCoeffsKnownValues(t *testing.T) {
	// Y_00^2 = 1/(4 pi); Y_10^2 = 3 z^2/(4 pi) = (P_0 + 2 P_2)/(4 pi);
	// |Y_11|^2 = 3 (1-z^2)/(8 pi) = (P_0 - P_2)/(4 pi).
	inv4pi := 1 / (4 * math.Pi)
	for _, c := range []struct {
		l1, l2, m int
		want      []float64
	}{
		{0, 0, 0, []float64{inv4pi}},
		{1, 1, 0, []float64{inv4pi, 2 * inv4pi}},
		{1, 1, 1, []float64{inv4pi, -inv4pi}},
	} {
		got := SelfPairCoeffs(c.l1, c.l2, c.m)
		if len(got) != len(c.want) {
			t.Fatalf("(%d,%d,%d): %d coefficients, want %d", c.l1, c.l2, c.m, len(got), len(c.want))
		}
		for k := range got {
			if math.Abs(got[k]-c.want[k]) > 1e-15 {
				t.Errorf("(%d,%d,%d) g[%d] = %v, want %v", c.l1, c.l2, c.m, k, got[k], c.want[k])
			}
		}
	}
}

// TestSelfPairContractionMatchesPointwise is the oracle for the engine's
// self-pair correction: for every channel (l1 <= l2, 0 <= m <= l1), the
// Gaunt coefficients contracted against the Legendre moments of the z
// components must equal sum_j w_j^2 Y_{l1 m} Y*_{l2 m} evaluated pointwise
// from the harmonic tables. The identity holds in any frame, so it covers
// every line-of-sight mode (they all rotate before this stage).
func TestSelfPairContractionMatchesPointwise(t *testing.T) {
	for _, lmax := range []int{0, 1, 10} {
		mono := NewMonomialTable(lmax)
		tab := NewYlmTable(lmax, mono)
		scratch := make([]float64, mono.Len())
		y := make([]complex128, PairCount(lmax))
		rng := rand.New(rand.NewSource(int64(7 + lmax)))

		const n = 200
		zs, ws := make([]float64, n), make([]float64, n)
		pc := PairCount(lmax)
		want := make([]complex128, pc*pc)
		scale := make([]float64, pc*pc) // sum_j w^2 |Y1||Y2|: the cancellation-free magnitude
		for j := 0; j < n; j++ {
			x, yy, z := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			r := math.Sqrt(x*x + yy*yy + z*z)
			x, yy, z = x/r, yy/r, z/r
			w := 0.5 + rng.Float64()
			zs[j], ws[j] = z, w
			tab.EvalPoint(x, yy, z, scratch, y)
			for i1 := range y {
				for i2 := range y {
					want[i1*pc+i2] += complex(w*w, 0) * y[i1] * cmplx.Conj(y[i2])
					scale[i1*pc+i2] += w * w * cmplx.Abs(y[i1]) * cmplx.Abs(y[i2])
				}
			}
		}

		// Accumulate in two halves with a split scale factor, as the engine
		// does across the primaries of a block.
		mom := make([]float64, 2*lmax+1)
		LegendreMoments(zs[:n/2], ws[:n/2], 0.25, mom)
		LegendreMoments(zs[n/2:], ws[n/2:], 0.25, mom)
		for i := range mom {
			mom[i] *= 4
		}

		for l2 := 0; l2 <= lmax; l2++ {
			for l1 := 0; l1 <= l2; l1++ {
				for m := 0; m <= l1; m++ {
					g := SelfPairCoeffs(l1, l2, m)
					got := 0.0
					for k, gk := range g {
						got += gk * mom[l2-l1+2*k]
					}
					idx := PairIndex(l1, m)*pc + PairIndex(l2, m)
					w, s := want[idx], scale[idx]
					if d := math.Abs(got - real(w)); d > 1e-12*s {
						t.Errorf("lmax %d (l1=%d l2=%d m=%d): contraction %v, pointwise %v (rel %.3g)",
							lmax, l1, l2, m, got, real(w), d/s)
					}
					if math.Abs(imag(w)) > 1e-12*s {
						t.Errorf("lmax %d (l1=%d l2=%d m=%d): pointwise product not real: %v", lmax, l1, l2, m, w)
					}
				}
			}
		}
	}
}

func TestLegendreMomentsMatchesLegendreAll(t *testing.T) {
	const order = 40
	rng := rand.New(rand.NewSource(3))
	zs := []float64{-1, 1, 0, 0.3, -0.77, rng.Float64()*2 - 1}
	ws := []float64{1, 2, 0.5, 1.5, 0.25, 3}
	got := make([]float64, order+1)
	LegendreMoments(zs, ws, 0.5, got)
	want := make([]float64, order+1)
	p := make([]float64, order+1)
	for j, z := range zs {
		LegendreAll(order, z, p)
		for L := range want {
			want[L] += 0.5 * ws[j] * ws[j] * p[L]
		}
	}
	for L := range got {
		if math.Abs(got[L]-want[L]) > 1e-13 {
			t.Errorf("moment %d = %v, want %v", L, got[L], want[L])
		}
	}
	empty := []float64{}
	LegendreMoments(zs, ws, 1, empty) // order -1: a no-op, not a panic
}

func TestLegendreMomentsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"length mismatch": func() { LegendreMoments([]float64{1}, nil, 1, make([]float64, 3)) },
		"order too high":  func() { LegendreMoments(nil, nil, 1, make([]float64, maxMomentOrder+2)) },
		"m above l":       func() { SelfPairCoeffs(1, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
