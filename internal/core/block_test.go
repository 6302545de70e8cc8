package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"galactos/internal/catalog"
	"galactos/internal/geom"
	"galactos/internal/hist"
	"galactos/internal/leakcheck"
)

// TestSchedulingEquivalenceBitwise pins the block scheduler's determinism
// contract: static and dynamic scheduling commit block contributions in the
// same (ascending, group-partitioned) order, so at a fixed worker count the
// results are bitwise identical — not merely close — including across LOS
// modes and repeated dynamic runs (whose worker interleaving varies).
func TestSchedulingEquivalenceBitwise(t *testing.T) {
	cat := catalog.Clustered(500, 180, catalog.DefaultClusterParams(), 81)
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"plane-parallel", func(*Config) {}},
		{"los-radial", func(c *Config) {
			c.LOS = LOSRadial
			c.Observer = geom.Vec3{X: -200, Y: -100, Z: -350}
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := propConfig()
			cfg.Workers = 4
			mode.mutate(&cfg)
			cfg.Scheduling = SchedStatic
			ref, err := Compute(cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scheduling = SchedDynamic
			for rep := 0; rep < 3; rep++ {
				got, err := Compute(cat, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Pairs != ref.Pairs || got.NPrimaries != ref.NPrimaries {
					t.Fatalf("rep %d: counts differ", rep)
				}
				if math.Float64bits(got.SumWeight) != math.Float64bits(ref.SumWeight) {
					t.Fatalf("rep %d: SumWeight differs bitwise", rep)
				}
				for i := range got.Aniso {
					a, b := got.Aniso[i], ref.Aniso[i]
					if math.Float64bits(real(a)) != math.Float64bits(real(b)) ||
						math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
						t.Fatalf("rep %d: Aniso[%d] dynamic != static bitwise: %v vs %v", rep, i, a, b)
					}
				}
			}
		})
	}
}

// TestBlockCancellationPromptNoLeaks cancels a running computation and
// checks that it returns promptly with ctx.Err() (the context is checked
// once per cell block) and that no worker goroutines outlive the call —
// including the dynamic path's commit-clock waiters, which must drain even
// when blocks are abandoned mid-group.
func TestBlockCancellationPromptNoLeaks(t *testing.T) {
	cat := catalog.Clustered(4000, 220, catalog.DefaultClusterParams(), 83)
	for _, sched := range []SchedKind{SchedDynamic, SchedStatic} {
		cfg := propConfig()
		cfg.RMax = 80
		cfg.Workers = 4
		cfg.Scheduling = sched
		cfg.ChunkSize = 4 // many small blocks: cancellation lands mid-run

		snap := leakcheck.Take()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		res, err := ComputeContext(ctx, cat, cfg)
		elapsed := time.Since(start)
		if err == nil {
			// The run may legitimately finish before the cancel fires on a
			// fast machine; only a late cancel with a hung return is a bug.
			if res == nil {
				t.Fatalf("%v: nil result without error", sched)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: want context.Canceled, got %v", sched, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%v: cancellation not prompt: took %v", sched, elapsed)
		}
		// Workers must be gone; allow the runtime a moment to reap them.
		snap.Check(t, 2*time.Second, nil)
	}
}

// TestProcessBlockAllocFree pins the satellite requirement that the
// steady-state block loop performs no allocations: after one warm-up sweep
// (buffer growth is amortized), processing blocks allocates nothing — no
// neighbor-buffer regrowth, no touched-list churn, no per-primary scratch.
func TestProcessBlockAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 8
	cfg.LMax = 6
	cfg.Workers = 1
	testProcessBlockAllocFree(t, cfg)
}

// TestProcessBlockAllocFreeIsoMidpoint is the same steady-state zero-alloc
// pin for the IsotropicOnly fast ladder under the midpoint LOS: the compact
// real slab fill, ZetaBatchIso calls, and per-pair midpoint rotations must
// all run out of the worker arenas with no per-block garbage.
func TestProcessBlockAllocFreeIsoMidpoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RMax = 50
	cfg.NBins = 8
	cfg.LMax = 6
	cfg.Workers = 1
	cfg.IsotropicOnly = true
	cfg.LOS = LOSMidpoint
	cfg.Observer = geom.Vec3{X: -250, Y: -150, Z: -400}
	testProcessBlockAllocFree(t, cfg)
}

func testProcessBlockAllocFree(t *testing.T, cfg Config) {
	t.Helper()
	cat := catalog.Clustered(2000, 200, catalog.DefaultClusterParams(), 85)
	cfg, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := hist.NewBinning(cfg.RMin, cfg.RMax, cfg.NBins)
	if err != nil {
		t.Fatal(err)
	}
	e := &engine{
		ctx:  context.Background(),
		cfg:  cfg,
		bins: bins,
		invW: bins.InvWidth(),
		box:  cat.Box,
		pts:  cat.Positions(),
		ws:   cat.Weights(),
	}
	e.primaryIdx = primaryIndices(nil, cat.Len())
	if err := e.buildFinder(); err != nil {
		t.Fatal(err)
	}
	e.buildBlocks()
	if len(e.blocks) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(e.blocks))
	}
	s := e.newWorkerState()
	for b := range e.blocks { // warm-up: grow all amortized buffers
		e.processBlock(s, b)
	}
	b := 0
	allocs := testing.AllocsPerRun(20, func() {
		e.processBlock(s, b)
		b = (b + 1) % len(e.blocks)
	})
	if allocs != 0 {
		t.Fatalf("steady-state processBlock allocates %.1f objects/run, want 0", allocs)
	}
}
