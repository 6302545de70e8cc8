// Command perfbench is the galactos benchmark. It runs one workload through
// the public entry points for a fixed time, checks every output against an
// oracle, and prints the end-to-end metrics (with -trace 1, the per-layer
// metrics instead) as one JSON object on the last line of standard output:
//
//	{"correct": true, "attempted": 8, "failed": 0, "metrics": {"job_s": {"value": 2.41, "unit": "s"}, ...}}
//
// run.sh builds perfbench and galactosd from the enclosing checkout and runs
// it with the flags below; BENCHMARK.json at the repository root lists the
// workloads and metrics, and PREDICTIONS.md which metric each layer should
// move. Scratch files, per-run result records (with the host record) and
// trace spans go under -workdir.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// engineWorkers is every job's engine worker budget: the core count of the
// 2-CPU host the workloads were sized on.
const engineWorkers = 2

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is an insertion-ordered set of metrics.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name, unit string, v float64) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the metrics an untraced run prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"job_s", "s"},
	{"hit_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run prints, with their units. A
// workload that does not exercise a layer reports 0 for it (the client and
// service layers on the batch workloads, self-count where it is off).
var perLayer = []struct{ name, unit string }{
	{"catalog.passes", "count"},
	{"catalog.records_read", "count"},
	{"catalog.read_s", "s"},
	{"catalog.hash_ms", "ms"},
	{"exec.run_s", "s"},
	{"exec.other_s", "s"},
	{"shard.units", "count"},
	{"shard.unit_s", "s"},
	{"shard.overhead_s", "s"},
	{"shard.halo_ratio", "ratio"},
	{"shard.checkpoint_bytes", "B"},
	{"core.tree_build_s", "s"},
	{"core.gather_s", "s"},
	{"core.consume_s", "s"},
	{"core.self_count_s", "s"},
	{"core.alm_zeta_s", "s"},
	{"core.other_s", "s"},
	{"core.busy_frac", "ratio"},
	{"core.pairs", "count"},
	{"core.kernel_flops", "count"},
	{"core.kernel_bytes", "B"},
	{"core.kernel_gflops", "GFLOP/s"},
	{"core.save_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"core.result_bytes", "B"},
	{"client.encode_ms", "ms"},
	{"client.submit_hit_ms", "ms"},
	{"client.submit_miss_ms", "ms"},
	{"client.fetch_ms", "ms"},
	{"client.hit_p90_ms", "ms"},
	{"client.miss_p90_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.finish_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"service.decode_ms", "ms"},
	{"service.hit_ratio", "ratio"},
	{"service.computations", "count"},
	{"journal.append_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// check is one output verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// outcome is everything one workload run measured and checked.
type outcome struct {
	e2e        metricSet // untraced-run metrics (endToEnd)
	layers     metricSet // traced-run metrics (perLayer)
	extra      metricSet // reported beside the metrics, never gated
	checks     []check
	closures   []closure
	attempted  int
	failed     int
	accounting []string
}

// verify records a check: ok with detail, or failed with err's text.
func (o *outcome) verify(name string, err error, detail string) {
	if err != nil {
		o.checks = append(o.checks, check{Name: name, OK: false, Detail: err.Error()})
		return
	}
	o.checks = append(o.checks, check{Name: name, OK: true, Detail: detail})
}

func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.OK {
			return false
		}
	}
	return o.failed == 0
}

// env is one run's settings.
type env struct {
	seed      int64
	dur       time.Duration
	dir       string  // scratch directory, removed when the run ends
	galactosd string  // galactosd binary (service-mixed)
	tr        *tracer // nil for untraced runs
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"box-default":   runBoxDefault,
	"survey-stream": runSurveyStream,
	"service-mixed": runServiceMixed,
}

func main() {
	workload := flag.String("workload", "", "box-default, survey-stream or service-mixed")
	seed := flag.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	galactosd := flag.String("galactosd", "", "galactosd binary (service-mixed)")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch files, result records and traces")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload box-default|survey-stream|service-mixed, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), dir: dir, galactosd: *galactosd}
	if *trace == 1 {
		e.tr = newTracer()
	}
	out, err := run(context.Background(), e)
	os.RemoveAll(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	for _, c := range out.closures {
		if err := c.check(); err != nil {
			out.verify("trace closure", err, "")
		}
	}
	if len(out.closures) > 0 && out.correct() {
		out.verify("trace closure", nil, fmt.Sprintf("%d parents: children plus remainder sum to the parent", len(out.closures)))
	}

	printed := out.e2e
	if e.tr != nil {
		for _, l := range perLayer {
			if _, ok := out.layers.m[l.name]; !ok {
				out.layers.set(l.name, l.unit, 0)
			}
		}
		printed = out.layers
	}
	h := hostRecord()
	report(*workload, *seed, h, out, printed)
	tag := fmt.Sprintf("%s-seed%d-trace%d-%d", *workload, *seed, *trace, time.Now().UnixNano())
	if err := writeRecord(filepath.Join(*workdir, "results", tag+".json"), map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": h, "correct": out.correct(), "attempted": out.attempted, "failed": out.failed,
		"end_to_end": out.e2e.m, "per_layer": out.layers.m, "extra": out.extra.m,
		"checks": out.checks, "accounting": out.accounting,
	}); err != nil {
		fatal(err)
	}
	if e.tr != nil {
		if err := writeRecord(filepath.Join(*workdir, "traces", tag+".json"), e.tr.snapshot()); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": out.correct(), "attempted": out.attempted, "failed": out.failed, "metrics": printed.m,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// report prints the human-readable summary: host, metrics with units,
// checks, and the paper's accounting beside the measurement.
func report(workload string, seed int64, h host, o *outcome, printed metricSet) {
	fmt.Printf("host: nproc=%d gomaxprocs=%d engine_workers=%d cpu=%q lanes=%s avx512=%t go=%s %s commit=%s\n",
		h.NProc, h.GOMAXPROCS, h.Workers, h.CPU, h.LaneDispatch, h.AVX512, h.GoVersion, h.OSArch, h.Commit)
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("workload %s seed %d: %d jobs attempted, %d failed (failed_frac %.4g)\n",
		workload, seed, o.attempted, o.failed, frac)
	for _, set := range []metricSet{printed, o.extra} {
		for _, n := range set.names {
			m := set.m[n]
			fmt.Printf("  %-24s %14.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, c := range o.checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED"
		}
		fmt.Printf("check %s: %s (%s)\n", c.Name, verdict, c.Detail)
	}
	for _, a := range o.accounting {
		fmt.Printf("paper: %s\n", a)
	}
}

// writeRecord writes v as indented JSON, creating the parent directory.
func writeRecord(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ms and sec convert a duration to float milliseconds and seconds.
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }
