package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"galactos"
	"galactos/internal/bruteforce"
	"galactos/internal/catalog"
	"galactos/internal/core"
	"galactos/internal/exec"
	"galactos/internal/geom"
	"galactos/internal/perfmodel"
	"galactos/internal/sphharm"
)

// Workload sizes. box-default and survey-stream jobs take about 2 s of
// steal-free time on a 2-vCPU x86 VM, so a 30 s run times 10 to 15 jobs.
const (
	boxN         = 1500 // galaxies, in a periodic box at Outer Rim density
	boxRMax      = 12   // below half the box side
	probeN       = 120  // brute-force probe catalog (O(N^3) oracle)
	probeL       = 30   // probe box side: above 2 RMax
	surveyN      = 12000
	surveyRMax   = 20
	surveyShards = 4
	// hitReps is how often each job's result file is read back; every
	// read is one hit_p50_ms sample of the batch workloads.
	hitReps = 25
	// pairBytes is what the kernel streams per pair: x, y, z and weight
	// as float64.
	pairBytes = 32
	// relTol is the repository's cross-path tolerance: max |a-b| over
	// max |ref|, across every channel and bin pair.
	relTol = 1e-9
)

// batchWorkload is one batch workload: each job is galactos.Run on the
// catalog file followed by core.SaveResult.
type batchWorkload struct {
	cfg         core.Config
	catalog     func(seed int64) *catalog.Catalog
	backend     func(jobDir string) galactos.BackendSpec
	checkpoints bool // the backend writes one checkpoint per unit
	// reference returns the result every timed job must reproduce; first
	// is the first timed job's result as read back from disk. It may
	// record oracle checks of its own.
	reference func(ctx context.Context, e *env, o *outcome, cat *catalog.Catalog, first *core.Result) (*core.Result, error)
}

// runBoxDefault: a periodic clustered box under the CLI defaults
// (plane-parallel line of sight, self-count on, 20 bins, LMax 10, kd32,
// local backend). Self-count and a_lm+zeta dominate; the plane-parallel
// parity fold runs. The oracle is brute force on a probe catalog through
// the same path and config; every timed job must repeat the first.
func runBoxDefault(ctx context.Context, e *env) (*outcome, error) {
	cfg := core.DefaultConfig()
	cfg.RMax = boxRMax
	cfg.Workers = engineWorkers
	return runBatch(ctx, e, batchWorkload{
		cfg: cfg,
		catalog: func(seed int64) *catalog.Catalog {
			return catalog.Clustered(boxN, catalog.BoxForDensity(boxN), catalog.DefaultClusterParams(), seed)
		},
		backend: func(string) galactos.BackendSpec { return galactos.BackendSpec{} },
		reference: func(ctx context.Context, e *env, o *outcome, _ *catalog.Catalog, first *core.Result) (*core.Result, error) {
			return first, probeCheck(ctx, e, o, cfg)
		},
	})
}

// runSurveyStream: an open-boundary clustered volume seen from an observer
// outside it (radial line of sight, so no parity fold), self-count off,
// streamed from the file through the sharded backend with checkpoints.
// The kernel, gather and the shard layer do the work. The oracle is a
// local single-shot run of the same catalog.
func runSurveyStream(ctx context.Context, e *env) (*outcome, error) {
	l := catalog.BoxForDensity(surveyN)
	cfg := core.DefaultConfig()
	cfg.RMax = surveyRMax
	cfg.NBins = 10
	cfg.SelfCount = false
	cfg.LOS = core.LOSRadial
	cfg.Observer = geom.Vec3{X: -0.5 * l, Y: -0.5 * l, Z: -l}
	cfg.Workers = engineWorkers
	return runBatch(ctx, e, batchWorkload{
		cfg: cfg,
		catalog: func(seed int64) *catalog.Catalog {
			cat := catalog.Clustered(surveyN, l, catalog.DefaultClusterParams(), seed)
			cat.Box = geom.Periodic{} // open boundaries
			return cat
		},
		backend: func(jobDir string) galactos.BackendSpec {
			return galactos.BackendSpec{Name: "sharded", Shards: surveyShards, Stream: true, CheckpointDir: jobDir}
		},
		checkpoints: true,
		reference: func(ctx context.Context, _ *env, o *outcome, cat *catalog.Catalog, _ *core.Result) (*core.Result, error) {
			run, err := galactos.Run(ctx, galactos.Request{Catalog: cat, Config: cfg})
			if err != nil {
				return nil, fmt.Errorf("local single-shot reference: %w", err)
			}
			o.verify("reference", nil, fmt.Sprintf("local single-shot run, %d pairs", run.Result.Pairs))
			return run.Result, nil
		},
	})
}

// probeCheck runs a small probe catalog through the timed jobs' path
// (file, galactos.Run, core.SaveResult, read back) and compares it with the
// O(N^3) brute-force triplet count.
func probeCheck(ctx context.Context, e *env, o *outcome, cfg core.Config) error {
	probe := catalog.Clustered(probeN, probeL, catalog.DefaultClusterParams(), e.seed+1_000_003)
	in := filepath.Join(e.dir, "probe.glxc")
	out := filepath.Join(e.dir, "probe.result")
	if err := catalog.SaveBinary(in, probe); err != nil {
		return err
	}
	run, err := galactos.Run(ctx, galactos.Request{Path: in, Config: cfg})
	if err != nil {
		return fmt.Errorf("probe run: %w", err)
	}
	if err := core.SaveResult(out, run.Result); err != nil {
		return err
	}
	got, err := core.LoadResult(out)
	if err != nil {
		return err
	}
	want, err := bruteforce.Aniso(probe, cfg)
	if err != nil {
		return err
	}
	err = agree(got, want)
	o.verify("probe vs brute force", err, fmt.Sprintf("%d galaxies, %d pairs, max rel diff %.3g",
		probeN, want.Pairs, relDiff(got, want)))
	return nil
}

// relDiff is the largest channel difference relative to the largest
// channel magnitude of want.
func relDiff(got, want *core.Result) float64 {
	if len(got.Aniso) != len(want.Aniso) {
		return 1
	}
	scale := want.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	return got.MaxAbsDiff(want) / scale
}

// agree requires the exact pair count and relTol agreement.
func agree(got, want *core.Result) error {
	if got.Pairs != want.Pairs {
		return fmt.Errorf("pairs %d, want %d", got.Pairs, want.Pairs)
	}
	if len(got.Aniso) != len(want.Aniso) {
		return fmt.Errorf("result shape %d channels·bins, want %d", len(got.Aniso), len(want.Aniso))
	}
	if d := relDiff(got, want); d > relTol {
		return fmt.Errorf("max rel diff %.3g above %.0e", d, relTol)
	}
	return nil
}

// batchJob is one timed job and what the benchmark saw of it.
type batchJob struct {
	id      string
	out     string  // result file
	sec     float64 // catalog file on disk to result file on disk, wall clock
	steal   float64 // stealShare over the job
	err     error
	traced  bool
	root    int // span ids, traced jobs only
	exec    int
	src     *countingSource
	units   []exec.UnitStats
	timings core.Breakdown
	pairs   uint64
}

// run executes timed job i. Untraced jobs pass the file as Request.Path;
// traced jobs pass the same file through a counting Source and record
// spans around the calls into galactos.Run and core.SaveResult.
func (w batchWorkload) run(ctx context.Context, e *env, path string, i int) *batchJob {
	j := &batchJob{id: fmt.Sprintf("job-%03d", i), root: -1, exec: -1}
	j.out = filepath.Join(e.dir, j.id+".result")
	jobDir := filepath.Join(e.dir, j.id+".ck")
	req := galactos.Request{Config: w.cfg, Backend: w.backend(jobDir)}
	var tr *tracer
	// Every other job of a traced run is untraced, so the run measures its
	// own tracing overhead.
	if e.tr != nil && i%2 == 0 {
		tr, j.traced = e.tr, true
	}
	// Every job starts from a collected heap, as a fresh CLI process does.
	runtime.GC()
	c0, t0 := readCPUTicks(), time.Now()
	if j.traced {
		j.root = tr.begin("job", j.id, -1)
		j.exec = tr.begin("exec.run", j.id, j.root)
		j.src = &countingSource{src: catalog.NewFileSource(path), tr: tr, job: j.id, parent: j.exec}
		req.Source = j.src
	} else {
		req.Path = path
	}
	run, err := galactos.Run(ctx, req)
	tr.end(j.exec)
	if err == nil {
		save := tr.begin("core.save", j.id, j.root)
		err = core.SaveResult(j.out, run.Result)
		tr.end(save)
	}
	j.sec = sec(time.Since(t0))
	j.steal = stealShare(c0, readCPUTicks())
	tr.end(j.root)
	if err != nil {
		j.err = err
		return j
	}
	j.units, j.timings, j.pairs = run.Units, run.Result.Timings, run.Result.Pairs
	return j
}

// runBatch runs a batch workload: set-up, the timed closed loop of jobs,
// then the checks and, in a traced run, the per-layer metrics.
func runBatch(ctx context.Context, e *env, w batchWorkload) (*outcome, error) {
	o := &outcome{}
	// Set-up is making the input catalog and writing it to a new file;
	// the last file is the jobs' input.
	var path string
	var setups []float64
	var cat *catalog.Catalog
	for i := 0; i < setupReps; i++ {
		path = filepath.Join(e.dir, fmt.Sprintf("catalog-%d.glxc", i))
		runtime.GC()
		t0 := time.Now()
		cat = w.catalog(e.seed)
		if err := catalog.SaveBinary(path, cat); err != nil {
			return nil, err
		}
		setups = append(setups, sec(time.Since(t0)))
	}

	// The timed phase: jobs back to back. After each job its result file is
	// read back hitReps times, the batch path's way to a stored answer;
	// reading between jobs spreads those samples over the whole run. A
	// read runs on one thread, and the steal share of the busy jobs does
	// not carry over to it, so reads are plain wall time.
	var jobs []*batchJob
	var hits []float64
	start := time.Now()
	for i := 0; time.Since(start) < e.dur; i++ {
		j := w.run(ctx, e, path, i)
		jobs = append(jobs, j)
		if j.err == nil {
			j.err = readBack(j.out, &hits)
		}
	}
	// Read before any oracle runs in this process.
	rss, err := selfPeakRSSMB()
	if err != nil {
		return nil, err
	}
	o.attempted = len(jobs)

	var first *core.Result
	if jobs[0].err == nil {
		if first, err = core.LoadResult(jobs[0].out); err != nil {
			jobs[0].err = err
		}
	}
	ref, err := w.reference(ctx, e, o, cat, first)
	if err != nil {
		return nil, err
	}
	var jobSecs, jobWall, jobSteal []float64
	var busy float64 // job seconds net of steal
	var firstErr error
	for _, j := range jobs {
		if j.err == nil {
			j.err = checkResult(j.out, ref)
		}
		if j.err != nil {
			o.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", j.id, j.err)
			}
			continue
		}
		jobSecs = append(jobSecs, j.sec*(1-j.steal))
		jobWall = append(jobWall, j.sec)
		jobSteal = append(jobSteal, j.steal)
		busy += j.sec * (1 - j.steal)
	}
	if ref != nil {
		o.verify("timed jobs vs reference", firstErr, fmt.Sprintf("%d/%d jobs: %d pairs exact, within %.0e",
			len(jobSecs), len(jobs), ref.Pairs, relTol))
	} else {
		o.verify("timed jobs vs reference", fmt.Errorf("first job failed: %v", jobs[0].err), "")
	}

	o.e2e.set("job_s", "s", median(jobSecs))
	o.e2e.set("hit_p50_ms", "ms", median(hits))
	// One job at a time: the closed loop's rate is jobs over job time.
	o.e2e.set("jobs_per_s", "1/s", float64(len(jobSecs))/busy)
	o.e2e.set("peak_rss_mb", "MB", rss)
	o.e2e.set("setup_s", "s", median(setups))
	o.extra.set("failed_frac", "ratio", float64(o.failed)/float64(o.attempted))
	if q, ok := quartiles(jobSecs); ok {
		o.extra.set("job_s.q1", "s", q[0])
		o.extra.set("job_s.q3", "s", q[2])
	}
	o.extra.set("job_wall_s", "s", median(jobWall))
	o.extra.set("steal_share", "ratio", median(jobSteal))
	for _, j := range jobs {
		if j.err == nil {
			batchAccounting(o, w.cfg, cat, j)
			break
		}
	}
	if e.tr != nil && jobs[0].err == nil {
		sample, err := core.LoadResult(jobs[0].out)
		if err != nil {
			return nil, err
		}
		if err := batchLayers(o, e, w, jobs); err != nil {
			return nil, err
		}
		wire := galactos.Request{Path: path, Config: w.cfg, Backend: w.backend(filepath.Join(e.dir, "job.ck"))}
		if err := replayLayers(o, e.dir, wire, catalog.NewFileSource(path), sample); err != nil {
			return nil, err
		}
		if w.checkpoints {
			// One checkpoint per unit, each a partial result of the
			// same encoded size.
			o.layers.set("shard.checkpoint_bytes", "B",
				o.layers.m["shard.units"].Value*o.layers.m["core.result_bytes"].Value)
		}
	}
	return o, nil
}

// readBack loads a result file hitReps times, appending each load's wall
// time in ms to hitMS.
func readBack(path string, hitMS *[]float64) error {
	for k := 0; k < hitReps; k++ {
		// Each read starts from a collected heap whose free pages went
		// back to the OS, as in a fresh process: a read neither pays for
		// the garbage of the ones before it nor reuses their pages.
		debug.FreeOSMemory()
		t0 := time.Now()
		if _, err := core.LoadResult(path); err != nil {
			return err
		}
		*hitMS = append(*hitMS, ms(time.Since(t0)))
	}
	return nil
}

// checkResult loads a job's result file and compares it with ref.
func checkResult(path string, ref *core.Result) error {
	if ref == nil {
		return fmt.Errorf("no reference result")
	}
	got, err := core.LoadResult(path)
	if err != nil {
		return err
	}
	return agree(got, ref)
}

// batchLayers turns the traced jobs' spans and the counters the program
// returned into per-layer metrics (means per traced job) and closures.
func batchLayers(o *outcome, e *env, w batchWorkload, jobs []*batchJob) error {
	spans := e.tr.snapshot()
	var n, passes, records, readS, runS, unitS, units, saveMS float64
	var tb, ga, co, sc, az, wt, other float64
	var owned, halo int
	var pairs uint64
	var traced, plain []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		if !j.traced {
			plain = append(plain, j.sec*(1-j.steal))
			continue
		}
		traced = append(traced, j.sec*(1-j.steal))
		n++
		run := spans[j.exec].dur()
		us := 0.0
		for _, u := range j.units {
			us += sec(u.Elapsed)
			owned += u.NOwned
			halo += u.NHalo
		}
		t := j.timings
		cl := leftover(j.id, part{"core.worker_total", sec(t.WorkerTotal)}, "core.other",
			part{"core.gather", sec(t.Gather)}, part{"core.consume", sec(t.Consume)},
			part{"core.self_count", sec(t.SelfCount)}, part{"core.alm_zeta", sec(t.AlmZeta)})
		o.closures = append(o.closures,
			spanClosure(spans, j.root, "job.other"),
			leftover(j.id, part{"exec.run", run}, "exec.other", part{"shard.unit", us}),
			cl)
		j.src.mu.Lock()
		passes += float64(j.src.passes)
		records += float64(j.src.records)
		readS += j.src.readSec
		j.src.mu.Unlock()
		runS += run
		unitS += us
		units += float64(len(j.units))
		for _, s := range spans {
			if s.Job == j.id && s.Name == "core.save" {
				saveMS += s.dur() * 1e3
			}
		}
		tb += sec(t.TreeBuild)
		ga += sec(t.Gather)
		co += sec(t.Consume)
		sc += sec(t.SelfCount)
		az += sec(t.AlmZeta)
		wt += sec(t.WorkerTotal)
		other += cl.remainder.value
		pairs = j.pairs
	}
	if n == 0 {
		return fmt.Errorf("no traced job succeeded")
	}
	o.layers.set("catalog.passes", "count", passes/n)
	o.layers.set("catalog.records_read", "count", records/n)
	o.layers.set("catalog.read_s", "s", readS/n)
	o.layers.set("exec.run_s", "s", runS/n)
	o.layers.set("exec.other_s", "s", (runS-unitS)/n)
	o.layers.set("shard.units", "count", units/n)
	o.layers.set("shard.unit_s", "s", unitS/n)
	o.layers.set("shard.overhead_s", "s", (runS-unitS)/n)
	if owned > 0 {
		o.layers.set("shard.halo_ratio", "ratio", float64(halo)/float64(owned))
	}
	setCoreLayers(o, w.cfg.LMax, pairs, tb/n, ga/n, co/n, sc/n, az/n, wt/n, other/n, runS/n)
	o.layers.set("core.save_ms", "ms", saveMS/n)
	if len(traced) > 0 && len(plain) > 0 {
		o.layers.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)
	}
	return nil
}

// setCoreLayers sets the engine's per-layer metrics from per-job worker
// seconds and the exact pair count.
func setCoreLayers(o *outcome, lmax int, pairs uint64, treeBuild, gather, consume, self, almZeta, workerTotal, other, runS float64) {
	o.layers.set("core.tree_build_s", "s", treeBuild)
	o.layers.set("core.gather_s", "s", gather)
	o.layers.set("core.consume_s", "s", consume)
	o.layers.set("core.self_count_s", "s", self)
	o.layers.set("core.alm_zeta_s", "s", almZeta)
	o.layers.set("core.other_s", "s", other)
	if runS > 0 {
		o.layers.set("core.busy_frac", "ratio", workerTotal/(engineWorkers*runS))
	}
	flops := float64(pairs) * float64(sphharm.FlopsPerPair(lmax))
	o.layers.set("core.pairs", "count", float64(pairs))
	o.layers.set("core.kernel_flops", "count", flops)
	o.layers.set("core.kernel_bytes", "B", float64(pairs)*pairBytes)
	if consume > 0 {
		o.layers.set("core.kernel_gflops", "GFLOP/s", flops/consume/1e9)
	}
}

// batchAccounting prints the paper's accounting beside one job's
// measurement: predicted pairs, FLOPs per pair, kernel rate. Reported,
// never gated.
func batchAccounting(o *outcome, cfg core.Config, cat *catalog.Catalog, j *batchJob) {
	b := cat.Bounds()
	vol := (b.Max.X - b.Min.X) * (b.Max.Y - b.Min.Y) * (b.Max.Z - b.Min.Z)
	if cat.Box.L > 0 {
		vol = cat.Box.L * cat.Box.L * cat.Box.L
	}
	density := float64(cat.Len()) / vol
	o.accounting = append(o.accounting, paperAccounting(cfg.LMax, cat.Len(), density, cfg.RMax,
		float64(j.pairs), sec(j.timings.Consume))...)
}

// paperAccounting formats the perfmodel predictions beside a measured pair
// count and consume time.
func paperAccounting(lmax, n int, density, rmax, pairs, consumeS float64) []string {
	uni := perfmodel.EstimatePairsUniform(n, density, rmax)
	or := perfmodel.EstimatePairsOuterRim(n, density, rmax)
	fpp := sphharm.FlopsPerPair(lmax)
	lines := []string{
		fmt.Sprintf("core.pairs %.0f; perfmodel predicts %.4g uniform (ratio %.3f), %.4g with the Outer Rim clustering boost (ratio %.3f)",
			pairs, uni, pairs/uni, or, pairs/or),
		fmt.Sprintf("sphharm.FlopsPerPair(%d) = %d; the paper counts %d kernel FLOPs/pair and %d for the whole computation (at LMax 10)",
			lmax, fpp, perfmodel.PaperFlopsPerPairKernel, perfmodel.PaperFlopsPerPairTotal),
	}
	if consumeS > 0 {
		gf := pairs * float64(fpp) / consumeS / 1e9
		lines = append(lines, fmt.Sprintf("core.kernel_gflops %.3g per worker-second of consume; the paper's node kernel rate is %d GF: efficiency %.4f",
			gf, perfmodel.PaperNodeKernelGF, perfmodel.Efficiency(gf, perfmodel.PaperNodeKernelGF)))
	}
	return lines
}

// selfPeakRSSMB is this process's resident-set high-water mark in MB.
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// countingSource wraps the catalog.Source a traced job hands to
// galactos.Run: it counts passes (Open calls) and records, and records a
// catalog.next span around every Cursor.Next call.
type countingSource struct {
	src    catalog.Source
	tr     *tracer
	job    string
	parent int

	mu      sync.Mutex
	passes  int
	records int
	readSec float64
}

func (s *countingSource) Open() (catalog.Cursor, error) {
	c, err := s.src.Open()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
	return &countingCursor{Cursor: c, s: s}, nil
}

type countingCursor struct {
	catalog.Cursor
	s *countingSource
}

func (c *countingCursor) Next(buf []catalog.Galaxy) (int, error) {
	t0 := time.Now()
	n, err := c.Cursor.Next(buf)
	t1 := time.Now()
	c.s.tr.add("catalog.next", c.s.job, c.s.parent, t0, t1)
	c.s.mu.Lock()
	c.s.records += n
	c.s.readSec += sec(t1.Sub(t0))
	c.s.mu.Unlock()
	return n, err
}
