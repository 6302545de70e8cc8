package galactos_test

import (
	"context"
	"math"
	"math/cmplx"
	"path/filepath"
	"testing"

	"galactos"
)

func smallConfig() galactos.Config {
	cfg := galactos.DefaultConfig()
	cfg.RMax = 40
	cfg.NBins = 4
	cfg.LMax = 3
	cfg.Workers = 2
	return cfg
}

// compute runs cat through Run on the local backend and returns the merged
// Result.
func compute(cat *galactos.Catalog, cfg galactos.Config) (*galactos.Result, error) {
	run, err := galactos.Run(context.Background(), galactos.Request{Catalog: cat, Config: cfg})
	if err != nil {
		return nil, err
	}
	return run.Result, nil
}

func TestPublicComputeMatchesBruteForce(t *testing.T) {
	cat := galactos.GenerateClustered(100, 150, galactos.DefaultClusterParams(), 2)
	cfg := smallConfig()
	got, err := compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := galactos.BruteForce3PCF(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-9*want.MaxAbs() {
		t.Errorf("public API result differs from brute force by %v", d)
	}
}

// TestPublicSelfCountMatchesBruteForceHighOrder pins the self-pair
// correction at the paper's LMax 10, where it lands: the diagonal (b, b)
// entries of every channel. Each case checks them channel by channel
// against direct triplet enumeration, relative to that channel's own
// largest entry, so a small-amplitude high-order channel cannot hide behind
// the monopole's scale.
func TestPublicSelfCountMatchesBruteForceHighOrder(t *testing.T) {
	base := galactos.DefaultConfig()
	base.RMax = 40
	base.NBins = 4
	base.LMax = 10
	base.Workers = 2
	base.SelfCount = true

	periodic := galactos.GenerateClustered(100, 150, galactos.DefaultClusterParams(), 21)
	open := galactos.GenerateClustered(100, 150, galactos.DefaultClusterParams(), 22)
	open.Box = galactos.Periodic{}

	for _, tc := range []struct {
		name string
		cat  *galactos.Catalog
		edit func(*galactos.Config)
	}{
		{"plane-parallel-periodic", periodic, func(c *galactos.Config) { c.LOS = galactos.LOSPlaneParallel }},
		{"radial-open", open, func(c *galactos.Config) {
			c.LOS = galactos.LOSRadial
			c.Observer = galactos.Vec3{X: -400, Y: 250, Z: -900}
		}},
		{"isotropic-only", periodic, func(c *galactos.Config) {
			c.LOS = galactos.LOSPlaneParallel
			c.IsotropicOnly = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			got, err := compute(tc.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := galactos.BruteForce3PCF(tc.cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Pairs != want.Pairs {
				t.Fatalf("pairs %d, brute force %d", got.Pairs, want.Pairs)
			}
			nb := cfg.NBins
			checked := 0
			for ci, c := range want.Combos.Combos {
				if cfg.IsotropicOnly && c.L1 != c.L2 {
					continue // the engine leaves these channels zero
				}
				ch := want.Aniso[ci*nb*nb : (ci+1)*nb*nb]
				scale := 0.0
				for _, v := range ch {
					scale = math.Max(scale, cmplx.Abs(v))
				}
				if scale == 0 {
					continue
				}
				for b := 0; b < nb; b++ {
					i := ci*nb*nb + b*nb + b
					if d := cmplx.Abs(got.Aniso[i] - want.Aniso[i]); d > 1e-9*scale {
						t.Errorf("(l1=%d l2=%d m=%d) bin %d: engine %v, brute force %v (rel %.3g)",
							c.L1, c.L2, c.M, b, got.Aniso[i], want.Aniso[i], d/scale)
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no channel had signal; the case checks nothing")
			}
		})
	}
}

func TestPublicDistributedMatchesSingle(t *testing.T) {
	cat := galactos.GenerateUniform(600, 180, 3)
	cfg := smallConfig()
	single, err := compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := galactos.Run(context.Background(), galactos.Request{
		Catalog: cat,
		Config:  cfg,
		Backend: galactos.BackendSpec{Name: "dist", Ranks: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.Units) != 3 {
		t.Errorf("%d rank stats", len(dist.Units))
	}
	if d := dist.Result.MaxAbsDiff(single); d > 1e-9*single.MaxAbs() {
		t.Errorf("distributed differs by %v", d)
	}
	owned := 0
	for _, u := range dist.Units {
		owned += u.NOwned
	}
	if owned != cat.Len() {
		t.Errorf("ranks own %d galaxies, want %d", owned, cat.Len())
	}
}

func TestPublicShardedMatchesSingle(t *testing.T) {
	cat := galactos.GenerateClustered(700, 170, galactos.DefaultClusterParams(), 4)
	cfg := smallConfig()
	single, err := compute(cat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := galactos.Run(context.Background(), galactos.Request{
		Catalog: cat,
		Config:  cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Units) != 4 {
		t.Errorf("%d shard stats", len(run.Units))
	}
	owned := 0
	for _, u := range run.Units {
		owned += u.NOwned
	}
	if owned != cat.Len() {
		t.Errorf("shards own %d galaxies, want %d", owned, cat.Len())
	}
	sharded := run.Result
	if sharded.Pairs != single.Pairs {
		t.Errorf("sharded pairs %d, want %d", sharded.Pairs, single.Pairs)
	}
	if d := sharded.MaxAbsDiff(single); d > 1e-9*single.MaxAbs() {
		t.Errorf("sharded differs by %v", d)
	}
}

func TestPublicResultIO(t *testing.T) {
	cat := galactos.GenerateClustered(300, 150, galactos.DefaultClusterParams(), 5)
	res, err := compute(cat, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "zeta.gres")
	if err := galactos.SaveResult(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := galactos.LoadResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := back.MaxAbsDiff(res); d != 0 {
		t.Errorf("result changed by %v in the file round trip", d)
	}
}

func TestPublicCatalogIO(t *testing.T) {
	dir := t.TempDir()
	cat := galactos.GenerateUniform(50, 90, 4)
	path := filepath.Join(dir, "cat.glxc")
	if err := galactos.SaveCatalog(path, cat); err != nil {
		t.Fatal(err)
	}
	got, err := galactos.LoadCatalog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 50 || got.Box.L != 90 {
		t.Errorf("round trip: N=%d L=%v", got.Len(), got.Box.L)
	}
}

func TestPublicTwoPCF(t *testing.T) {
	cat := galactos.GenerateClustered(2000, 250, galactos.DefaultClusterParams(), 5)
	pc, err := galactos.TwoPCF(cat, galactos.TwoPCFConfig{RMax: 30, NBins: 3, LMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pc.NPairs == 0 {
		t.Error("no pairs counted")
	}
	random := galactos.GenerateUniform(6000, 250, 6)
	xi, err := galactos.LandySzalay(cat, random, galactos.TwoPCFConfig{RMin: 1, RMax: 15, NBins: 2})
	if err != nil {
		t.Fatal(err)
	}
	if xi[0] < 0.5 {
		t.Errorf("clustered catalog shows xi = %v at small scales", xi[0])
	}
}

func TestPublicDataMinusRandomSuppressesZeta(t *testing.T) {
	// The D-R construction on a *random* "data" catalog must give channels
	// consistent with zero (the geometry correction removes the mean).
	data := galactos.GenerateUniform(300, 150, 7)
	random := galactos.GenerateUniform(1200, 150, 8)
	combined, err := galactos.DataMinusRandom(data, random)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	resDR, err := compute(combined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resD, err := compute(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The raw data monopole is large and positive; the D-R monopole must be
	// much smaller in magnitude.
	var raw, corr float64
	for b := 0; b < cfg.NBins; b++ {
		raw += math.Abs(resD.IsoZeta(0, b, b))
		corr += math.Abs(resDR.IsoZeta(0, b, b))
	}
	if corr > raw/5 {
		t.Errorf("D-R monopole %v not suppressed vs raw %v", corr, raw)
	}
}

func TestPublicJackknife(t *testing.T) {
	samples := [][]float64{{1, 2}, {1.5, 2.1}, {0.5, 1.3}, {1.2, 2.6}}
	c, err := galactos.JackknifeCovariance(samples)
	if err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) <= 0 {
		t.Error("variance not positive")
	}
	if _, err := c.Inverse(); err != nil {
		t.Errorf("2x2 jackknife covariance should invert: %v", err)
	}
}

func TestPublicRSD(t *testing.T) {
	cat := galactos.GenerateUniform(200, 100, 9)
	d := galactos.ApplyRSD(cat, 4, 10)
	if d.Len() != cat.Len() {
		t.Error("RSD changed catalog size")
	}
}

func TestPublicBAOGenerator(t *testing.T) {
	cat := galactos.GenerateBAO(2000, 500, galactos.DefaultBAOParams(), 11)
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
}
