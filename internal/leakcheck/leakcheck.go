// Package leakcheck is the shared goroutine-leak check of the test suites.
// It compares goroutine stacks, not runtime.NumGoroutine counts: a
// snapshot records the ids of the goroutines alive before the code under
// test runs, and the check reports every goroutine started since then that
// is still alive, with its stack. A pooled connection or a runtime helper
// that happens to exit while a new leak starts cannot make the two counts
// cancel out, and a failure names the goroutine that leaked.
package leakcheck

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Snapshot is the set of goroutine ids alive at one moment.
type Snapshot map[uint64]bool

// Take records the goroutines alive now.
func Take() Snapshot {
	s := Snapshot{}
	for id := range goroutines() {
		s[id] = true
	}
	return s
}

// leaked polls until every goroutine started since the snapshot has exited
// or timeout passes, and returns the stacks of those still alive (nil when
// none are). settle, if non-nil, runs before every poll — e.g. to close an
// HTTP client's idle keep-alive connections, which are pooled, not leaked.
// Test runner goroutines (testing.tRunner) are not counted.
func (s Snapshot) leaked(timeout time.Duration, settle func()) []string {
	deadline := time.Now().Add(timeout)
	for {
		if settle != nil {
			settle()
		}
		var leaked []string
		for id, stack := range goroutines() {
			if !s[id] && !strings.Contains(stack, "testing.tRunner(") {
				leaked = append(leaked, stack)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Check fails t, listing the leaked stacks, when goroutines started since
// the snapshot are still alive after timeout (see leaked).
func (s Snapshot) Check(t testing.TB, timeout time.Duration, settle func()) {
	t.Helper()
	if leaked := s.leaked(timeout, settle); len(leaked) > 0 {
		t.Errorf("%d goroutine(s) leaked:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// goroutines returns the stack of every live goroutine, keyed by id.
func goroutines() map[uint64]string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := map[uint64]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		// Each record starts "goroutine <id> [<state>]:".
		rest, ok := strings.CutPrefix(g, "goroutine ")
		if !ok {
			continue
		}
		idStr, _, _ := strings.Cut(rest, " ")
		if id, err := strconv.ParseUint(idStr, 10, 64); err == nil {
			out[id] = g
		}
	}
	return out
}
