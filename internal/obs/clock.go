// Package obs is pfaird's observability layer: fixed-bucket latency
// histograms, a ring buffer of structured trace events for the command
// lifecycle, Prometheus text-exposition helpers (writer *and* parser, so
// tests and tools consume exactly what the server emits), and build-info
// discovery. Everything that measures time does so through an injectable
// Clock, which is the package's core contract: with a Fake clock every
// histogram bucket count, every quantile, and every trace timestamp is an
// exact, deterministic function of the workload — the test harness
// asserts equality, not tolerances. The package depends only on the
// stdlib and internal/rat, and sits below internal/server and internal/wal, which thread a
// single Clock through every measured path.
package obs

import (
	"sync"
	"time"
)

// Clock supplies the current wall time. The production implementation is
// Real; tests inject a Fake so measured durations are exact.
type Clock interface {
	Now() time.Time
}

// Real is the system clock.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Fake is a deterministic test clock. Each Now call returns the current
// instant and then advances it by Step (0 freezes time); Advance moves it
// explicitly. The auto-step makes "how long did this take" observations
// exact: a code path that reads the clock twice measures exactly Step,
// however fast the machine is.
//
// Fake is safe for concurrent use, but concurrent readers see
// interleaving-dependent instants — deterministic tests drive it from one
// goroutine.
type Fake struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

// NewFake starts a fake clock at `at`, auto-advancing by step per Now call.
func NewFake(at time.Time, step time.Duration) *Fake {
	return &Fake{now: at, step: step}
}

// Now returns the current fake instant and advances it by the step.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := f.now
	f.now = f.now.Add(f.step)
	return t
}

// Advance moves the fake clock forward by d without consuming a step.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}
