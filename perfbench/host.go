package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"galactos/internal/sphharm"
)

// host describes the machine and build a result was measured on, so two
// results are only compared like with like.
type host struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Workers      int    `json:"engine_workers"`
	CPU          string `json:"cpu_model"`
	LaneDispatch string `json:"lane_dispatch"`
	AVX512       bool   `json:"avx512"`
	GoVersion    string `json:"go_version"`
	OSArch       string `json:"os_arch"`
	Commit       string `json:"commit"`
}

func hostRecord() host {
	return host{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workers:      engineWorkers,
		CPU:          cpuModel(),
		LaneDispatch: sphharm.LaneDispatch(),
		AVX512:       sphharm.HasAVX512(),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		Commit:       commit(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision stamped into the build, with "+dirty" for a
// modified tree; "unknown" when built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// cpuTicks is a snapshot of the host's per-CPU accounting: for each CPU,
// the ticks the guest spent running, and the ticks a hypervisor stole from
// it while it wanted to run.
type cpuTicks struct{ busy, steal []float64 }

// readCPUTicks reads the per-CPU lines of /proc/stat; it returns nothing
// where there are none, which makes every steal share 0.
func readCPUTicks() cpuTicks {
	var t cpuTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") || f[0] == "cpu" {
			continue
		}
		var v [8]float64
		for i := range v {
			v[i], _ = strconv.ParseFloat(f[i+1], 64)
		}
		// user nice system idle iowait irq softirq steal
		t.busy = append(t.busy, v[0]+v[1]+v[2]+v[5]+v[6])
		t.steal = append(t.steal, v[7])
	}
	return t
}

// stealShare is the share of the CPU time demanded between two snapshots
// that a hypervisor withheld: 0 on an unshared host. Each CPU's stolen
// share of its demanded time is weighted by the time that CPU ran, so a
// mostly idle CPU whose rare wake-ups wait on the hypervisor does not
// count for a busy one. On a shared VM a wall-clock interval of busy CPUs
// stretches by 1/(1-share), so the benchmark reports such an interval
// scaled by (1-share) and the raw wall time beside it.
func stealShare(a, b cpuTicks) float64 {
	if len(a.busy) != len(b.busy) {
		return 0
	}
	var weighted, busy float64
	for i := range a.busy {
		run := b.busy[i] - a.busy[i]
		steal := b.steal[i] - a.steal[i]
		if run <= 0 || steal < 0 {
			continue
		}
		weighted += run * steal / (run + steal)
		busy += run
	}
	if busy == 0 {
		return 0
	}
	return weighted / busy
}

// stealClock snapshots the CPU accounting at a fixed period while a timed
// phase runs, so each interval of the phase is scaled by the steal share
// of the window it fell in: a hypervisor's steal comes and goes within a
// phase.
type stealClock struct {
	mu    sync.Mutex
	times []time.Time
	ticks []cpuTicks
	stop  chan struct{}
	done  chan struct{}
}

func startStealClock(every time.Duration) *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.snap()
	go func() {
		defer close(c.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.snap()
			}
		}
	}()
	return c
}

func (c *stealClock) snap() {
	tk, now := readCPUTicks(), time.Now()
	c.mu.Lock()
	c.times = append(c.times, now)
	c.ticks = append(c.ticks, tk)
	c.mu.Unlock()
}

// end takes the last snapshot and stops the clock.
func (c *stealClock) end() {
	close(c.stop)
	<-c.done
	c.snap()
}

// shareAt is the steal share of the window containing t (the first or
// last window for a t outside the clock's span).
func (c *stealClock) shareAt(t time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.times) < 2 {
		return 0
	}
	i := sort.Search(len(c.times), func(i int) bool { return c.times[i].After(t) })
	if i < 1 {
		i = 1
	} else if i > len(c.times)-1 {
		i = len(c.times) - 1
	}
	return stealShare(c.ticks[i-1], c.ticks[i])
}

// netSeconds is the clock's whole span with each window scaled by
// (1 - its steal share).
func (c *stealClock) netSeconds() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := 0.0
	for i := 1; i < len(c.times); i++ {
		s += sec(c.times[i].Sub(c.times[i-1])) * (1 - stealShare(c.ticks[i-1], c.ticks[i]))
	}
	return s
}
