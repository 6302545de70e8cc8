package sphharm

import (
	"fmt"
	"math"
)

// SelfPairCoeffs returns the Gaunt coefficients that expand a same-m
// product of spherical harmonics on the unit sphere in Legendre polynomials
// of the polar cosine z:
//
//	Y_{l1 m}(rhat) Y*_{l2 m}(rhat) = sum_k g[k] P_{|l1-l2|+2k}(z),  k = 0..min(l1, l2),
//
//	G_L = (-1)^m (2L+1)/(4 pi) sqrt((2l1+1)(2l2+1)) (l1 l2 L; 0 0 0) (l1 l2 L; m -m 0).
//
// Both legs carry the same m, so the e^{i m phi} factors cancel: the
// product is real and depends on z alone. The 3j selection rules leave only
// the L between |l1-l2| and l1+l2 with the parity of l1+l2, which is why g
// runs in steps of two. This is the self-pair (a secondary paired with
// itself) term of the zeta outer product: contracting g against the Legendre
// moments of LegendreMoments reproduces sum_j w_j^2 Y_{l1 m} Y*_{l2 m}
// without evaluating any harmonic per pair.
func SelfPairCoeffs(l1, l2, m int) []float64 {
	if m < 0 || m > l1 || m > l2 {
		panic(fmt.Sprintf("sphharm: SelfPairCoeffs needs 0 <= m <= min(l1, l2), got (%d, %d, %d)", l1, l2, m))
	}
	lo := abs(l1 - l2)
	g := make([]float64, min(l1, l2)+1)
	sign := 1.0
	if m%2 == 1 {
		sign = -1
	}
	pre := sign * math.Sqrt(float64((2*l1+1)*(2*l2+1))) / (4 * math.Pi)
	for k := range g {
		L := lo + 2*k
		g[k] = pre * float64(2*L+1) * Wigner3j000(l1, l2, L) * Wigner3j(l1, l2, L, m, -m, 0)
	}
	return g
}

// maxMomentOrder bounds LegendreMoments' order (twice the largest multipole
// order any caller couples); the recurrence coefficients are tabulated once.
const maxMomentOrder = 64

// legRecA[n] = (2n-1)/n and legRecB[n] = (n-1)/n: the three-term recurrence
// P_n = legRecA[n] z P_{n-1} - legRecB[n] P_{n-2} with the division hoisted.
var legRecA, legRecB = func() (a, b [maxMomentOrder + 1]float64) {
	for n := 2; n <= maxMomentOrder; n++ {
		a[n] = float64(2*n-1) / float64(n)
		b[n] = float64(n-1) / float64(n)
	}
	return
}()

// LegendreMoments adds scale * w_j^2 * P_L(z_j) over the tile (zs, ws) into
// out[L] for L = 0..len(out)-1, evaluating the Legendre ladder with the
// three-term recurrence (one multiply-add per order for the moment, three
// flops per order for the ladder). len(out)-1 must not exceed 64.
func LegendreMoments(zs, ws []float64, scale float64, out []float64) {
	if len(zs) != len(ws) {
		panic("sphharm: LegendreMoments tile length mismatch")
	}
	n := len(out)
	if n == 0 {
		return
	}
	if n > maxMomentOrder+1 {
		panic(fmt.Sprintf("sphharm: LegendreMoments order %d exceeds %d", n-1, maxMomentOrder))
	}
	for j, z := range zs {
		w2 := scale * ws[j] * ws[j]
		out[0] += w2
		if n == 1 {
			continue
		}
		out[1] += w2 * z
		p0, p1 := 1.0, z
		for L := 2; L < n; L++ {
			p0, p1 = p1, legRecA[L]*z*p1-legRecB[L]*p0
			out[L] += w2 * p1
		}
	}
}
