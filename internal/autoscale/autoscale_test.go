package autoscale

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/obs"
)

// lagHist builds a cumulative lag snapshot over obs.QuantaBuckets from
// per-bucket (non-cumulative) observation counts; extra observations land
// in +Inf.
func lagHist(perBucket [5]uint64, inf uint64) obs.Snapshot {
	s := obs.Snapshot{Bounds: obs.QuantaBuckets, Buckets: make([]uint64, 5)}
	var cum uint64
	for i, n := range perBucket {
		cum += n
		s.Buckets[i] = cum
		s.Sum += float64(n) * obs.QuantaBuckets[i]
	}
	s.Count = cum + inf
	s.Sum += float64(inf) * 2
	return s
}

// addLag accumulates more observations onto a cumulative snapshot.
func addLag(base obs.Snapshot, perBucket [5]uint64, inf uint64) obs.Snapshot {
	more := lagHist(perBucket, inf)
	out := obs.Snapshot{Bounds: base.Bounds, Buckets: make([]uint64, 5)}
	for i := range base.Buckets {
		out.Buckets[i] = base.Buckets[i] + more.Buckets[i]
	}
	out.Count = base.Count + more.Count
	out.Sum = base.Sum + more.Sum
	return out
}

// fakeTenant is the synthetic backend one scrape line describes.
type fakeTenant struct {
	m, pending int
	lag        obs.Snapshot
}

// renderScrape emits exactly the server's exposition shape for the
// families the scaler reads (ParseExposition enforces the structure).
func renderScrape(tenants map[string]*fakeTenant) string {
	ids := make([]string, 0, len(tenants))
	for id := range tenants {
		ids = append(ids, id)
	}
	// Deterministic order, as the server's sorted exposition has.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	b := obs.AppendHeader(nil, "pfaird_tenant_m", "Current processor count, per tenant.", "gauge")
	for _, id := range ids {
		b = obs.AppendInt(b, "pfaird_tenant_m",
			[]obs.Label{{Name: "tenant", Value: id}}, int64(tenants[id].m))
	}
	b = obs.AppendHeader(b, "pfaird_tenant_pending_m", "Queued shrink target, per tenant.", "gauge")
	for _, id := range ids {
		b = obs.AppendInt(b, "pfaird_tenant_pending_m",
			[]obs.Label{{Name: "tenant", Value: id}}, int64(tenants[id].pending))
	}
	b = obs.AppendHeader(b, "pfaird_tenant_dispatch_lag_quanta", "Dispatch tardiness in quanta, per tenant.", "histogram")
	for _, id := range ids {
		b = obs.AppendHistogram(b, "pfaird_tenant_dispatch_lag_quanta",
			[]obs.Label{{Name: "tenant", Value: id}}, tenants[id].lag)
	}
	return string(b)
}

// harness wires a Scaler to a synthetic backend and a manual clock.
type harness struct {
	tenants map[string]*fakeTenant
	clock   *obs.Fake
	scaler  *Scaler
	calls   []Action
	fail    error // returned by the next resize calls when non-nil
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{
		tenants: map[string]*fakeTenant{},
		clock:   obs.NewFake(time.Unix(1000, 0), 0),
	}
	h.scaler = NewFuncs(cfg, h.clock,
		func(context.Context) (string, error) { return renderScrape(h.tenants), nil },
		func(_ context.Context, tenant string, m int, drain bool) error {
			h.calls = append(h.calls, Action{Tenant: tenant, Target: m, Drain: drain})
			if h.fail != nil {
				return h.fail
			}
			ft := h.tenants[tenant]
			if drain && ft.pending == 0 && m < ft.m {
				ft.m = m // the synthetic tenant is always feasible
			} else if !drain {
				ft.m = m
			}
			return nil
		})
	return h
}

func (h *harness) tick(t *testing.T) Report {
	t.Helper()
	rep, err := h.scaler.Tick(context.Background())
	if err != nil {
		t.Fatalf("Tick: %v", err)
	}
	return rep
}

// high is one window's worth of near-bound lag: p90 lands in the
// (0.75, 1] bucket, a grow vote. low is all-zero lag, a shrink vote.
var (
	high = [5]uint64{0, 0, 0, 2, 8}
	low  = [5]uint64{5, 0, 0, 0, 0}
)

func TestDiffWindowSubtractsAndHandlesReset(t *testing.T) {
	prev := lagHist([5]uint64{3, 1, 0, 0, 0}, 0)
	cur := addLag(prev, high, 0)
	w := diffWindow(cur, prev)
	if w.Count != 10 {
		t.Fatalf("window count %d, want 10", w.Count)
	}
	if q := w.Quantile(0.9); q < 0.75 {
		t.Fatalf("windowed p90 %g polluted by pre-window observations", q)
	}
	// Counter reset (failover): the current snapshot IS the window.
	w = diffWindow(prev, cur)
	if w.Count != prev.Count {
		t.Fatalf("reset window count %d, want %d", w.Count, prev.Count)
	}
}

func TestClassifyHysteresisBand(t *testing.T) {
	if v := classify(lagHist(high, 0)); v != growVote {
		t.Fatalf("high lag classified %v, want grow", v)
	}
	if v := classify(lagHist(low, 0)); v != shrinkVote {
		t.Fatalf("zero lag classified %v, want shrink", v)
	}
	if v := classify(obs.Snapshot{}); v != shrinkVote {
		t.Fatalf("idle window classified %v, want shrink", v)
	}
	// p90 in the dead band between shrinkAt and growAt: hold.
	if v := classify(lagHist([5]uint64{0, 0, 10, 0, 0}, 0)); v != hold {
		t.Fatalf("mid lag classified %v, want hold", v)
	}
}

// window feeds every tenant one more window — high lag when hot, none
// otherwise — a second apart, and ticks.
func (h *harness) window(t *testing.T, hot bool) Report {
	t.Helper()
	for _, ft := range h.tenants {
		if hot {
			ft.lag = addLag(ft.lag, high, 0)
		}
	}
	h.clock.Advance(time.Second)
	return h.tick(t)
}

// TestScalerGrowThenShrinkCycle walks the full control loop: holdUp
// high-lag windows grow the tenant, the cooldown holds further action, and
// holdDown idle windows then shrink it back — with drain, never bypassing
// feasibility.
func TestScalerGrowThenShrinkCycle(t *testing.T) {
	h := newHarness(t, Config{MinM: 1, MaxM: 8})
	h.tenants["T"] = &fakeTenant{m: 2, lag: lagHist([5]uint64{}, 0)}

	if rep := h.tick(t); len(rep.Actions) != 0 {
		t.Fatalf("baseline tick acted: %+v", rep.Actions)
	}
	for i := 1; i < holdUp; i++ {
		if rep := h.window(t, true); len(rep.Actions) != 0 {
			t.Fatalf("high window %d acted before holdUp: %+v", i, rep.Actions)
		}
	}
	rep := h.window(t, true)
	if len(rep.Actions) != 1 || rep.Actions[0].Target != 3 || rep.Actions[0].Drain {
		t.Fatalf("after holdUp windows: %+v, want grow to 3", rep.Actions)
	}
	if h.tenants["T"].m != 3 {
		t.Fatalf("backend m %d after grow", h.tenants["T"].m)
	}

	// Still-high lag inside the cooldown: votes accrue, no action.
	if rep := h.window(t, true); len(rep.Actions) != 0 {
		t.Fatalf("acted inside cooldown: %+v", rep.Actions)
	}

	// Idle windows inside the cooldown build the shrink streak; the first
	// tick past it with holdDown idle windows behind it shrinks by one,
	// drain mode.
	for i := 0; i < holdDown-1; i++ {
		h.window(t, false)
	}
	h.clock.Advance(cooldown)
	rep = h.window(t, false)
	if len(rep.Actions) != 1 || rep.Actions[0].Target != 2 || !rep.Actions[0].Drain {
		t.Fatalf("after holdDown idle windows: %+v, want drain shrink to 2", rep.Actions)
	}
	if len(h.calls) != 2 {
		t.Fatalf("resize calls: %+v", h.calls)
	}
}

// TestScalerBoundsAndPendingGate pins the guard rails: no grow above
// MaxM, no shrink below MinM, and no shrink while a drain target is
// already queued.
func TestScalerBoundsAndPendingGate(t *testing.T) {
	h := newHarness(t, Config{MinM: 2, MaxM: 3})
	h.tenants["T"] = &fakeTenant{m: 3, lag: lagHist([5]uint64{}, 0)}

	h.tick(t) // baseline
	for i := 0; i < holdUp; i++ {
		if rep := h.window(t, true); len(rep.Actions) != 0 {
			t.Fatalf("grew past MaxM: %+v", rep.Actions)
		}
	}

	// Idle windows shrink 3 → 2, then stop at MinM however long they last.
	for i := 0; i < 3*holdDown; i++ {
		h.clock.Advance(cooldown)
		h.window(t, false)
	}
	if h.tenants["T"].m != 2 || len(h.calls) != 1 {
		t.Fatalf("m %d after %d resizes, want clamped at MinM 2 by one shrink", h.tenants["T"].m, len(h.calls))
	}

	// A queued drain target gates further shrinks entirely.
	h.tenants["T"] = &fakeTenant{m: 3, pending: 2, lag: lagHist([5]uint64{}, 0)}
	h.scaler.tenants = map[string]*tenantState{}
	h.calls = nil
	for i := 0; i < 3*holdDown; i++ {
		h.clock.Advance(cooldown)
		h.window(t, false)
	}
	if len(h.calls) != 0 {
		t.Fatalf("shrank a tenant with a pending drain target: %+v", h.calls)
	}
}

// TestScalerTokenBucketSheds: a fleet-wide lag spike across more tenants
// than the bucket is deep produces burst actions; the rest are shed but
// keep their streaks, and the bucket's refill lets one more act a second
// later.
func TestScalerTokenBucketSheds(t *testing.T) {
	h := newHarness(t, Config{MinM: 1, MaxM: 8})
	const tenants = burst + 2
	for i := 0; i < tenants; i++ {
		h.tenants[string(rune('A'+i))] = &fakeTenant{m: 2, lag: lagHist([5]uint64{}, 0)}
	}
	h.tick(t) // baseline
	for i := 1; i < holdUp; i++ {
		h.window(t, true)
	}
	rep := h.window(t, true)
	if len(rep.Actions) != burst || rep.Shed != tenants-burst {
		t.Fatalf("actions %d shed %d, want %d actions + %d shed", len(rep.Actions), rep.Shed, burst, tenants-burst)
	}
	rep = h.window(t, true)
	if len(rep.Actions) != 1 || rep.Shed != 1 {
		t.Fatalf("a second later: actions %d shed %d, want 1 action (one token refilled) + 1 shed", len(rep.Actions), rep.Shed)
	}
}

// TestScalerOverloadBacksOff: a 429 from the server doubles the quiet
// period — the scaler sheds its own traffic instead of retrying into
// backpressure.
func TestScalerOverloadBacksOff(t *testing.T) {
	h := newHarness(t, Config{MinM: 1, MaxM: 8})
	h.tenants["T"] = &fakeTenant{m: 2, lag: lagHist([5]uint64{}, 0)}
	h.tick(t)
	for i := 1; i < holdUp; i++ {
		h.window(t, true)
	}
	h.fail = &client.APIError{Status: http.StatusTooManyRequests, Msg: "ring full"}
	rep := h.window(t, true)
	if len(rep.Actions) != 1 || rep.Actions[0].Err == nil {
		t.Fatalf("overloaded resize not reported: %+v", rep.Actions)
	}
	h.fail = nil

	// One normal cooldown later, its grow streak rebuilt, the tenant is
	// still backing off...
	for i := 0; i < holdUp; i++ {
		h.window(t, true)
	}
	h.clock.Advance(cooldown)
	if rep := h.window(t, true); len(rep.Actions) != 0 {
		t.Fatalf("acted inside the overload backoff: %+v", rep.Actions)
	}
	// ...and after the doubled backoff it acts again.
	h.clock.Advance(cooldown)
	if rep := h.window(t, true); len(rep.Actions) != 1 {
		t.Fatalf("did not recover after the overload backoff: %+v", rep.Actions)
	}
}

// syncLogf is a race-safe log collector for Run.
type syncLogf struct {
	mu    sync.Mutex
	lines []string
}

func (l *syncLogf) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, format)
}

// TestRunLoopStops covers the pfaird wiring surface: a tick whose scrape
// fails is logged, not fatal, and Run returns once its context is
// cancelled.
func TestRunLoopStops(t *testing.T) {
	s := NewFuncs(Config{}, obs.NewFake(time.Unix(0, 0), 0),
		func(context.Context) (string, error) { return "", context.DeadlineExceeded },
		func(context.Context, string, int, bool) error { return nil })
	var lg syncLogf
	s.tickAndLog(context.Background(), lg.logf)
	if len(lg.lines) != 1 || lg.lines[0] != "autoscale: tick: %v" {
		t.Fatalf("a failed scrape logged %q, want one tick error", lg.lines)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx, lg.logf)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Run did not stop on context cancellation")
	}
}
