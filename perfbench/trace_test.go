package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 2, End: 5},   // overlaps a
		{Name: "c", Parent: 0, Start: 8, End: 12},  // runs past the parent
		{Name: "a.1", Parent: 1, Start: 1, End: 2}, // grandchild: covered by a
	}
	// Covered: [1,5] and [8,10] -> 6 of 10.
	if got := selfTime(spans, 0); math.Abs(got-4) > 1e-12 {
		t.Errorf("self time of job = %v, want 4", got)
	}
	if got := selfTime(spans, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("self time of a = %v, want 1", got)
	}
	if got := selfTime(spans, 4); got != 1 {
		t.Errorf("self time of a leaf = %v, want its duration 1", got)
	}
}

func TestSpanClosure(t *testing.T) {
	sequential := []span{
		{Name: "job", Job: "j", Parent: -1, Start: 0, End: 10},
		{Name: "exec.run", Job: "j", Parent: 0, Start: 0.5, End: 8},
		{Name: "core.save", Job: "j", Parent: 0, Start: 8, End: 9.5},
	}
	c := spanClosure(sequential, 0, "job.other")
	if err := c.check(); err != nil {
		t.Fatalf("sequential children: %v", err)
	}
	if math.Abs(c.remainder.value-1) > 1e-12 {
		t.Errorf("job.other = %v, want 1", c.remainder.value)
	}
	// Overlapping children claim 6 s of a 5 s parent whose self time is 1:
	// the sum no longer closes.
	overlapping := []span{
		{Name: "request", Job: "r", Parent: -1, Start: 0, End: 5},
		{Name: "a", Job: "r", Parent: 0, Start: 0, End: 3},
		{Name: "b", Job: "r", Parent: 0, Start: 1, End: 4},
	}
	if err := spanClosure(overlapping, 0, "request.other").check(); err == nil {
		t.Error("overlapping children must fail the closure")
	}
}

func TestLeftoverClosure(t *testing.T) {
	ok := leftover("j", part{"exec.run", 3}, "exec.other", part{"shard.unit", 1.25}, part{"shard.unit", 1.5})
	if err := ok.check(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(ok.remainder.value-0.25) > 1e-12 {
		t.Errorf("exec.other = %v, want 0.25", ok.remainder.value)
	}
	over := leftover("j", part{"core.worker_total", 2}, "core.other", part{"core.consume", 1.5}, part{"core.gather", 0.6})
	if err := over.check(); err == nil {
		t.Error("children exceeding the parent must fail the closure")
	}
	// Rounding-sized excess is tolerated.
	tiny := leftover("j", part{"exec.run", 1}, "exec.other", part{"shard.unit", 1 + 1e-13})
	if err := tiny.check(); err != nil {
		t.Errorf("rounding-sized excess: %v", err)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("job", "j", -1)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer: id %d, spans %v", id, tr.snapshot())
	}
	tr = newTracer()
	root := tr.begin("job", "j", -1)
	child := tr.add("catalog.next", "j", root, time.Now(), time.Now().Add(time.Millisecond))
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child].Parent != root || spans[root].End < spans[root].Start {
		t.Errorf("spans = %+v", spans)
	}
}

func TestStealShareWeightsBusyCPUs(t *testing.T) {
	a := cpuTicks{busy: []float64{0, 0}, steal: []float64{0, 0}}
	// CPU 0 ran 80 ticks and lost 20; CPU 1 ran 2 ticks and lost 18 while
	// waking up. The share is CPU 0's 0.2 nearly unchanged.
	b := cpuTicks{busy: []float64{80, 2}, steal: []float64{20, 18}}
	want := (80*0.2 + 2*0.9) / 82
	if got := stealShare(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("stealShare = %v, want %v", got, want)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("no ticks: stealShare = %v, want 0", got)
	}
	if got := stealShare(cpuTicks{}, b); got != 0 {
		t.Errorf("mismatched snapshots: stealShare = %v, want 0", got)
	}
}

func TestStealClockWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	tk := func(busy, steal float64) cpuTicks {
		return cpuTicks{busy: []float64{busy}, steal: []float64{steal}}
	}
	c := &stealClock{
		times: []time.Time{t0, t0.Add(2 * time.Second), t0.Add(4 * time.Second)},
		// First window: no steal. Second: half the demanded time stolen.
		ticks: []cpuTicks{tk(0, 0), tk(200, 0), tk(300, 100)},
	}
	for _, tc := range []struct {
		at   time.Duration
		want float64
	}{{-time.Second, 0}, {time.Second, 0}, {3 * time.Second, 0.5}, {9 * time.Second, 0.5}} {
		if got := c.shareAt(t0.Add(tc.at)); got != tc.want {
			t.Errorf("shareAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := c.netSeconds(); math.Abs(got-3) > 1e-12 {
		t.Errorf("netSeconds = %v, want 2 + 2*(1-0.5) = 3", got)
	}
}
