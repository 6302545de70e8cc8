package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"galactos"
	"galactos/client"
	"galactos/internal/catalog"
	"galactos/internal/core"
)

// service-mixed sizes: small isotropic-only jobs on the sharded backend,
// inline catalogs, half of them resubmitted from a hot set.
const (
	svcN         = 1000 // galaxies per inline catalog, periodic box at Outer Rim density
	svcRMax      = 8
	svcShards    = 2
	svcClients   = 2 // closed-loop clients, one connection each
	hotSet       = 4 // hot catalogs, split evenly between the clients
	startTimeout = 30 * time.Second
	stealWindow  = 2 * time.Second
)

func svcRequest(cat *catalog.Catalog) galactos.Request {
	cfg := core.DefaultConfig()
	cfg.RMax = svcRMax
	cfg.NBins = 10
	cfg.IsotropicOnly = true
	cfg.SelfCount = false
	cfg.Workers = engineWorkers
	return galactos.Request{Catalog: cat, Config: cfg,
		Backend: galactos.BackendSpec{Name: "sharded", Shards: svcShards}}
}

// svcCatalog is catalog i of a seeded stream: stream 0 is the hot set,
// stream 1+c the misses of client c. Distinct (stream, i) give distinct
// catalogs, so a miss is never a key the server has seen.
func svcCatalog(seed int64, stream, i int) *catalog.Catalog {
	s := seed*1_000_003 + int64(stream)*10_007_000 + int64(i)
	return catalog.Clustered(svcN, catalog.BoxForDensity(svcN), catalog.DefaultClusterParams(), s)
}

// daemon is one galactosd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error // cmd.Wait's result, once its stderr has closed
}

// startDaemon execs galactosd on a fresh state dir and returns once
// /readyz answers 200, with the time from exec to that answer.
func startDaemon(ctx context.Context, bin, stateDir string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	// -retain 64 lets the job registry reach its bound early in a run, so
	// the peak resident set is the server's steady state and not a count
	// of how many jobs a run happened to finish.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-state-dir", stateDir,
		"-retain", "64", "-quiet")
	// A benchmark killed mid-run takes its server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting galactosd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addrCh <- addr:
					default:
					}
					continue
				}
			}
			fmt.Fprintf(os.Stderr, "[galactosd] %s\n", line)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		return nil, 0, fmt.Errorf("galactosd exited before listening: %v", err)
	case <-time.After(startTimeout):
		d.kill()
		return nil, 0, fmt.Errorf("galactosd did not announce its address within %s", startTimeout)
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	probe := client.New("http://"+d.addr, hc)
	for !probe.Ready(ctx) {
		if time.Since(t0) > startTimeout {
			d.kill()
			return nil, 0, fmt.Errorf("galactosd at %s never became ready", d.addr)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, time.Since(t0), nil
}

// kill ends the daemon at once and reaps it (error paths).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// stop shuts the daemon down gracefully and returns its peak resident set
// in MB, as the OS accounted it.
func (d *daemon) stop() (float64, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	var err error
	select {
	case err = <-d.done:
	case <-time.After(startTimeout):
		d.cmd.Process.Kill()
		<-d.done
		err = fmt.Errorf("galactosd did not drain within %s", startTimeout)
	}
	// galactosd can end on the SIGTERM itself after logging a clean drain;
	// that is a clean stop too.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		err = nil
	}
	if err != nil {
		return 0, err
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no resource usage for galactosd")
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}

// svcCall is one request's round trip: Submit, Wait, ResultBytes.
type svcCall struct {
	job      string
	planHit  bool
	traced   bool
	st       client.JobStatus
	payload  []byte
	err      error
	start    time.Time
	total    time.Duration // Submit until the result bytes are in hand
	submit   time.Duration
	fetch    time.Duration
	waitDone time.Time        // when Wait returned
	root     int              // request span (traced calls)
	cat      *catalog.Catalog // a miss's catalog, kept in traced runs for the replays
}

// call sends one request through the client and records its spans on tr
// (nil for an untraced call).
func call(ctx context.Context, cl *client.Client, tr *tracer, job string, req galactos.Request) svcCall {
	c := svcCall{job: job, traced: tr != nil, start: time.Now()}
	c.root = tr.begin("request", job, -1)
	defer tr.end(c.root)
	sp := tr.begin("client.submit", job, c.root)
	st, err := cl.Submit(ctx, req)
	tr.end(sp)
	c.submit = time.Since(c.start)
	if err != nil {
		c.err = fmt.Errorf("submit: %w", err)
		return c
	}
	sp = tr.begin("client.wait", job, c.root)
	c.st, err = cl.Wait(ctx, st.ID)
	tr.end(sp)
	c.waitDone = time.Now()
	if err != nil {
		c.err = fmt.Errorf("wait %s: %w", st.ID, err)
		return c
	}
	if c.st.State != "done" {
		c.err = fmt.Errorf("%s ended %s: %s", st.ID, c.st.State, c.st.Error)
		return c
	}
	sp = tr.begin("client.fetch", job, c.root)
	c.payload, err = cl.ResultBytes(ctx, st.ID)
	tr.end(sp)
	c.total = time.Since(c.start)
	c.fetch = time.Since(c.waitDone)
	if err != nil {
		c.err = fmt.Errorf("result %s: %w", st.ID, err)
	}
	return c
}

// hotEntry is one hot-set catalog: its request and its first payload.
type hotEntry struct {
	req     galactos.Request
	payload []byte
}

// runServiceMixed drives a real galactosd (one server worker, durable state
// dir) with a closed loop of two clients. Each client sends blocks of one
// hit and one miss in a seeded order: hits resubmit the client's own share
// of a hot set computed during warm-up, misses carry catalogs never sent
// before. The mix is exactly one half, and no two requests in flight share
// a key.
func runServiceMixed(ctx context.Context, e *env) (*outcome, error) {
	if e.galactosd == "" {
		return nil, fmt.Errorf("service-mixed needs -galactosd")
	}
	o := &outcome{}
	// Set-up: exec to the first 200 on /readyz on a fresh state dir,
	// setupReps times; the last server carries the workload.
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if _, err := d.stop(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = startDaemon(ctx, e.galactosd, filepath.Join(e.dir, fmt.Sprintf("state-%d", i))); err != nil {
			return nil, err
		}
		setups = append(setups, sec(took))
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	base := "http://" + d.addr

	// Warm-up: compute the hot set, check it against in-process runs of the
	// same requests, then hit each key once.
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	cl := client.New(base, hc)
	hot := make([]hotEntry, hotSet)
	var hotErr, hitErr error
	for h := range hot {
		req := svcRequest(svcCatalog(e.seed, 0, h))
		c := call(ctx, cl, nil, "warm", req)
		if c.err != nil {
			return nil, fmt.Errorf("warm-up: %w", c.err)
		}
		got, err := core.ReadResult(bytes.NewReader(c.payload))
		if err != nil {
			return nil, fmt.Errorf("warm-up payload: %w", err)
		}
		local, err := galactos.Run(ctx, req)
		if err != nil {
			return nil, fmt.Errorf("warm-up in-process run: %w", err)
		}
		if err := agree(got, local.Result); err != nil && hotErr == nil {
			hotErr = fmt.Errorf("hot %d: %w", h, err)
		}
		hot[h] = hotEntry{req: req, payload: c.payload}
	}
	for h := range hot {
		c := call(ctx, cl, nil, "warm", hot[h].req)
		if c.err != nil {
			return nil, fmt.Errorf("warm-up hit: %w", c.err)
		}
		if (!c.st.CacheHit || !bytes.Equal(c.payload, hot[h].payload)) && hitErr == nil {
			hitErr = fmt.Errorf("hot %d: cache_hit %t, payload identical %t",
				h, c.st.CacheHit, bytes.Equal(c.payload, hot[h].payload))
		}
	}
	o.verify("hot set vs in-process run", hotErr, fmt.Sprintf("%d catalogs: pairs exact, within %.0e", hotSet, relTol))
	o.verify("warm-up hits", hitErr, "each hot key served from the cache, byte-identical")
	before, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}

	// Timed phase.
	clock := startStealClock(stealWindow)
	start := time.Now()
	deadline := start.Add(e.dur)
	calls := make([][]svcCall, svcClients)
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			calls[c] = clientLoop(ctx, e, c, base, hot, deadline)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	clock.end()

	after, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	stopped = true
	rss, err := d.stop()
	if err != nil {
		return nil, err
	}

	var all []svcCall
	for _, cs := range calls {
		all = append(all, cs...)
	}
	return o, svcOutcome(o, e, all, before, after, wall, clock, rss, setups)
}

// clientLoop is one closed-loop client: blocks of one hit and one miss in
// a seeded order until the deadline, checked only between blocks so every
// client issues exactly as many hits as misses.
func clientLoop(ctx context.Context, e *env, c int, base string, hot []hotEntry, deadline time.Time) []svcCall {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	cl := client.New(base, hc)
	rng := rand.New(rand.NewSource(e.seed*31 + int64(c)))
	var out []svcCall
	hits, misses := 0, 0
	for blk := 0; time.Now().Before(deadline); blk++ {
		hitFirst := rng.Intn(2) == 0
		var tr *tracer
		if e.tr != nil && blk%2 == 0 {
			tr = e.tr // every other block untraced: the run measures its own tracing overhead
		}
		for k := 0; k < 2; k++ {
			planHit := (k == 0) == hitFirst
			var req galactos.Request
			key := -1
			if planHit {
				key = c + svcClients*(hits%(hotSet/svcClients))
				hits++
				req = hot[key].req
			} else {
				req = svcRequest(svcCatalog(e.seed, 1+c, misses))
				misses++
			}
			r := call(ctx, cl, tr, fmt.Sprintf("c%d-%05d", c, 2*blk+k), req)
			r.planHit = planHit
			if tr != nil && !planHit {
				r.cat = req.Catalog
			}
			if r.err == nil {
				r.err = checkPayload(r, key, hot)
			}
			out = append(out, r)
		}
	}
	return out
}

// checkPayload requires a payload that decodes, and for a hit one that is
// byte-identical to its key's first payload.
func checkPayload(r svcCall, key int, hot []hotEntry) error {
	res, err := core.ReadResult(bytes.NewReader(r.payload))
	if err != nil {
		return fmt.Errorf("%s: payload does not decode: %w", r.st.ID, err)
	}
	if key >= 0 && !bytes.Equal(r.payload, hot[key].payload) {
		return fmt.Errorf("%s: hit payload differs from hot %d's first payload", r.st.ID, key)
	}
	if r.st.Perf != nil && r.st.Perf.Pairs != res.Pairs {
		return fmt.Errorf("%s: payload has %d pairs, status reports %d", r.st.ID, res.Pairs, r.st.Perf.Pairs)
	}
	return nil
}

// svcOutcome checks the calls and the server's counters and fills the
// metrics.
func svcOutcome(o *outcome, e *env, all []svcCall, before, after client.Stats,
	wall time.Duration, clock *stealClock, rss float64, setups []float64) error {
	o.attempted = len(all)
	var rs, raw []request
	var firstErr error
	planHits := 0
	for _, c := range all {
		if c.planHit {
			planHits++
		}
		if c.err != nil {
			o.failed++
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		// Scaled by the steal share of the window the request's middle fell in.
		mid := c.start.Add(c.total / 2)
		rs = append(rs, request{planHit: c.planHit, served: c.st.CacheHit, ms: ms(c.total) * (1 - clock.shareAt(mid))})
		raw = append(raw, request{planHit: c.planHit, served: c.st.CacheHit, ms: ms(c.total)})
	}
	hits, misses, mismatched := splitHitMiss(rs)
	o.verify("payloads", firstErr, fmt.Sprintf("%d/%d decode, every hit byte-identical to its key's first payload", len(rs), len(all)))
	if mismatched > 0 {
		o.failed += mismatched
		o.verify("hit/miss as planned", fmt.Errorf("%d requests answered against the plan", mismatched), "")
	}
	dHits := after.CacheHits - before.CacheHits
	dMisses := after.CacheMisses - before.CacheMisses
	ratio := 0.0
	if dHits+dMisses > 0 {
		ratio = float64(dHits) / float64(dHits+dMisses)
	}
	planned := float64(planHits) / float64(len(all))
	var statsErr error
	if int(dHits) != planHits || int(dMisses) != len(all)-planHits || ratio != planned {
		statsErr = fmt.Errorf("/v1/stats: %d hits %d misses (ratio %.4g), plan: %d hits of %d (%.4g)",
			dHits, dMisses, ratio, planHits, len(all), planned)
	}
	o.verify("service.hit_ratio equals the seeded mix", statsErr, fmt.Sprintf("%d hits, %d misses, ratio %g", dHits, dMisses, ratio))

	o.e2e.set("job_s", "s", median(misses)/1e3)
	o.e2e.set("hit_p50_ms", "ms", median(hits))
	o.e2e.set("jobs_per_s", "1/s", float64(len(rs))/clock.netSeconds())
	o.e2e.set("peak_rss_mb", "MB", rss)
	o.e2e.set("setup_s", "s", median(setups))
	o.extra.set("failed_frac", "ratio", float64(o.failed)/float64(o.attempted))
	rawHits, rawMisses, _ := splitHitMiss(raw)
	o.extra.set("job_wall_s", "s", median(rawMisses)/1e3)
	o.extra.set("hit_wall_p50_ms", "ms", median(rawHits))
	o.extra.set("steal_share", "ratio", 1-clock.netSeconds()/sec(wall))
	o.extra.set("hits", "count", float64(len(hits)))
	o.extra.set("misses", "count", float64(len(misses)))
	hitP90, hitOK := tailPercentile(hits, 90)
	missP90, missOK := tailPercentile(misses, 90)
	if hitOK {
		o.extra.set("hit_p90_ms", "ms", hitP90)
	}
	if missOK {
		o.extra.set("miss_p90_ms", "ms", missP90)
	}
	for _, c := range all {
		if c.err == nil && !c.planHit && c.st.Perf != nil {
			p := c.st.Perf
			o.accounting = append(o.accounting, paperAccounting(p.LMax, svcN,
				catalog.OuterRimDensity, svcRMax, float64(p.Pairs), p.PhaseSec["consume"])...)
			break
		}
	}
	if e.tr == nil {
		return nil
	}
	if hitOK {
		o.layers.set("client.hit_p90_ms", "ms", hitP90)
	}
	if missOK {
		o.layers.set("client.miss_p90_ms", "ms", missP90)
	}
	o.layers.set("service.hit_ratio", "ratio", ratio)
	o.layers.set("service.computations", "count", float64(dMisses))
	return svcLayers(o, e, all)
}

// svcLayers turns the traced calls' spans and JobStatus timestamps and
// telemetry into per-layer metrics (means per traced call) and closures.
func svcLayers(o *outcome, e *env, all []svcCall) error {
	spans := e.tr.snapshot()
	var nHit, nMiss, nAll, submitHit, submitMiss, fetch float64
	var queue, runMS, finish, notify float64
	var runS, unitS, units, tb, ga, co, sc, az, wt, other float64
	var owned, halo int
	var pairs float64
	var traced, plain []float64
	var sample svcCall
	for _, c := range all {
		if c.err != nil {
			continue
		}
		if !c.planHit {
			if c.cat != nil {
				sample = c
			}
			if c.traced {
				traced = append(traced, ms(c.total))
			} else {
				plain = append(plain, ms(c.total))
			}
		}
		if !c.traced {
			continue
		}
		nAll++
		fetch += ms(c.fetch)
		o.closures = append(o.closures, spanClosure(spans, c.root, "request.other"))
		if c.planHit {
			nHit++
			submitHit += ms(c.submit)
			continue
		}
		nMiss++
		submitMiss += ms(c.submit)
		st := c.st
		run := ms(st.FinishedAt.Sub(st.StartedAt))
		queue += ms(st.StartedAt.Sub(st.QueuedAt))
		runMS += run
		finish += run - st.ElapsedSec*1e3
		notify += ms(c.waitDone.Sub(st.FinishedAt))
		us := 0.0
		for _, u := range st.Units {
			us += sec(u.Elapsed)
			owned += u.NOwned
			halo += u.NHalo
		}
		ph := st.Perf.PhaseSec
		cl := leftover(c.job, part{"core.worker_total", ph["worker_total"]}, "core.other",
			part{"core.gather", ph["gather"]}, part{"core.consume", ph["consume"]},
			part{"core.self_count", ph["self_count"]}, part{"core.alm_zeta", ph["alm_zeta"]})
		o.closures = append(o.closures,
			leftover(c.job, part{"service.run", run / 1e3}, "service.finish", part{"exec.run", st.ElapsedSec}),
			leftover(c.job, part{"exec.run", st.ElapsedSec}, "exec.other", part{"shard.unit", us}),
			cl)
		runS += st.ElapsedSec
		unitS += us
		units += float64(len(st.Units))
		tb += ph["tree_build"]
		ga += ph["gather"]
		co += ph["consume"]
		sc += ph["self_count"]
		az += ph["alm_zeta"]
		wt += ph["worker_total"]
		other += cl.remainder.value
		pairs += float64(st.Perf.Pairs)
	}
	if nHit == 0 || nMiss == 0 {
		return fmt.Errorf("traced run has %v traced hits and %v traced misses", nHit, nMiss)
	}
	o.layers.set("client.submit_hit_ms", "ms", submitHit/nHit)
	o.layers.set("client.submit_miss_ms", "ms", submitMiss/nMiss)
	o.layers.set("client.fetch_ms", "ms", fetch/nAll)
	o.layers.set("service.queue_wait_ms", "ms", queue/nMiss)
	o.layers.set("service.run_ms", "ms", runMS/nMiss)
	o.layers.set("service.finish_ms", "ms", finish/nMiss)
	o.layers.set("service.notify_ms", "ms", notify/nMiss)
	o.layers.set("exec.run_s", "s", runS/nMiss)
	o.layers.set("exec.other_s", "s", (runS-unitS)/nMiss)
	o.layers.set("shard.units", "count", units/nMiss)
	o.layers.set("shard.unit_s", "s", unitS/nMiss)
	o.layers.set("shard.overhead_s", "s", (runS-unitS)/nMiss)
	if owned > 0 {
		o.layers.set("shard.halo_ratio", "ratio", float64(halo)/float64(owned))
	}
	lmax := sample.st.Perf.LMax
	setCoreLayers(o, lmax, uint64(pairs/nMiss), tb/nMiss, ga/nMiss, co/nMiss, sc/nMiss, az/nMiss, wt/nMiss, other/nMiss, runS/nMiss)
	if len(traced) > 0 && len(plain) > 0 {
		o.layers.set("trace.overhead_frac", "ratio", median(traced)/median(plain)-1)
	}

	// The server's catalog layer reads an inline catalog once per
	// submission, to hash it; replay that pass through a counting Source.
	res, err := core.ReadResult(bytes.NewReader(sample.payload))
	if err != nil {
		return err
	}
	cat := sample.cat
	cs := &countingSource{src: catalog.NewMemorySource(cat), tr: e.tr, job: "replay", parent: -1}
	if _, err := catalog.Hash(cs); err != nil {
		return err
	}
	o.layers.set("catalog.passes", "count", float64(cs.passes))
	o.layers.set("catalog.records_read", "count", float64(cs.records))
	o.layers.set("catalog.read_s", "s", cs.readSec)
	if err := replayLayers(o, e.dir, svcRequest(cat), catalog.NewMemorySource(cat), res); err != nil {
		return err
	}
	// The durable server checkpoints every shard of a miss: one partial
	// result of the encoded size per unit.
	o.layers.set("shard.checkpoint_bytes", "B", units/nMiss*o.layers.m["core.result_bytes"].Value)
	return nil
}
