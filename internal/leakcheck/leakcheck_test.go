package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// blockForever parks until stop closes; its name marks the leaked stack.
func blockForever(stop <-chan struct{}) { <-stop }

// recorder is a testing.TB that records Errorf instead of failing.
type recorder struct {
	testing.TB
	failed bool
	msg    string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.failed = true
	r.msg = fmt.Sprintf(format, args...)
}

// TestDetectsDeliberateLeak starts one goroutine that outlives the code
// under test: Check must fail naming that goroutine by its stack, and pass
// once it exits.
func TestDetectsDeliberateLeak(t *testing.T) {
	snap := Take()
	stop := make(chan struct{})
	go blockForever(stop)

	rec := &recorder{TB: t}
	snap.Check(rec, 50*time.Millisecond, nil)
	if !rec.failed {
		t.Fatal("Check passed with a goroutine still parked")
	}
	if !strings.Contains(rec.msg, "1 goroutine(s) leaked") || !strings.Contains(rec.msg, "blockForever") {
		t.Fatalf("failure does not report the one leaked goroutine by name:\n%s", rec.msg)
	}

	close(stop)
	if leaked := snap.leaked(5*time.Second, nil); len(leaked) != 0 {
		t.Fatalf("goroutine still reported after it exited:\n%s", strings.Join(leaked, "\n\n"))
	}
}

// TestIgnoresPreexistingAndFinished: goroutines alive before the snapshot
// and goroutines that finish within the timeout are not leaks.
func TestIgnoresPreexistingAndFinished(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	go blockForever(stop)
	snap := Take()

	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(done)
	}()
	settled := 0
	snap.Check(t, 5*time.Second, func() { settled++ })
	<-done
	if settled == 0 {
		t.Fatal("settle hook never ran")
	}
}
