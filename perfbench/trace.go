package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, or one interval a
// layer reported back. Spans of one job share its Job id.
type span struct {
	Name   string  `json:"name"`
	Job    string  `json:"job"`
	Parent int     `json:"parent"`  // index of the enclosing span, -1 for a root
	Start  float64 `json:"start_s"` // seconds since the tracer was created
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A nil tracer
// records nothing, which is how untraced runs stay untouched.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name, job string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
	return len(t.spans) - 1
}

// begin opens a span ending at the matching end call.
func (t *tracer) begin(name, job string, parent int) int {
	now := time.Now()
	return t.add(name, job, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime returns span i's duration minus the part of it its children
// cover: the union of their intervals, clipped to span i, so overlapping
// children are not counted twice.
func selfTime(spans []span, i int) float64 {
	p := spans[i]
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		if s.Parent != i {
			continue
		}
		a, b := math.Max(s.Start, p.Start), math.Min(s.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, curA, curB := 0.0, 0.0, 0.0
	for k, v := range ivs {
		switch {
		case k == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			covered += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB - curA
	}
	return p.dur() - covered
}

// part is one named share of a parent's time.
type part struct {
	name  string
	value float64
}

// closure states that a parent's time is its children's times plus a named
// remainder. The remainder is either measured on its own (a span's self
// time) or defined as what the children leave over; either way it may not
// be negative, which would mean the children claim more than the parent.
type closure struct {
	job       string
	parent    part
	children  []part
	remainder part
}

// closureTol absorbs float rounding when sums of span times are compared.
const closureTol = 1e-9

// check reports whether the children plus the remainder sum to the parent
// and the remainder is not negative, both within a relative tolerance.
func (c closure) check() error {
	sum := c.remainder.value
	for _, ch := range c.children {
		sum += ch.value
	}
	tol := closureTol * math.Max(math.Abs(c.parent.value), 1e-6)
	if math.Abs(sum-c.parent.value) > tol {
		return fmt.Errorf("%s %s: children plus %s sum to %.9g, parent is %.9g",
			c.job, c.parent.name, c.remainder.name, sum, c.parent.value)
	}
	if c.remainder.value < -tol {
		return fmt.Errorf("%s %s: children exceed the parent by %.3g (remainder %s)",
			c.job, c.parent.name, -c.remainder.value, c.remainder.name)
	}
	return nil
}

// leftover builds a closure whose remainder is what the children leave of
// the parent.
func leftover(job string, parent part, remainder string, children ...part) closure {
	rest := parent.value
	for _, ch := range children {
		rest -= ch.value
	}
	return closure{job: job, parent: parent, children: children, remainder: part{remainder, rest}}
}

// spanClosure builds the closure of span i: its children's durations plus
// its self time, named remainder.
func spanClosure(spans []span, i int, remainder string) closure {
	c := closure{job: spans[i].Job, parent: part{spans[i].Name, spans[i].dur()},
		remainder: part{remainder, selfTime(spans, i)}}
	for _, s := range spans {
		if s.Parent == i {
			c.children = append(c.children, part{s.Name, s.dur()})
		}
	}
	return c
}
