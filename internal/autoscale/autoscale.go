// Package autoscale closes the loop between pfaird's observability and
// its elastic capacity: a Scaler periodically scrapes /metrics, rebuilds
// each tenant's pfaird_tenant_dispatch_lag_quanta histogram with the obs
// parser, and turns *windowed* lag quantiles — the difference between
// consecutive cumulative scrapes, so old load can never mask or fake a
// current signal — into POST /v1/tenants/{id}/resize calls.
//
// The control loop is deliberately conservative, because capacity changes
// are journaled state transitions, not free knob twiddles:
//
//   - Hysteresis: growing needs the windowed quantile at or above growAt
//     for holdUp consecutive windows; shrinking needs it at or below
//     shrinkAt (or an idle window) for holdDown windows. The dead band
//     between the thresholds resets both streaks.
//   - Cooldown: after any action a tenant is left alone for cooldown, so
//     the scaler observes the effect of one change before making another.
//   - Token-bucket admission: all actions pass a shared bucket (rate per
//     second, burst deep). When the bucket is empty the action is shed —
//     counted, not queued — so a fleet-wide lag spike cannot turn the
//     scaler into a resize storm.
//   - Overload shedding: a 429 or 503 from the server puts the tenant in
//     a backoff of twice the cooldown. Backpressure means the server needs
//     fewer commands, so the scaler stops sending them; it never retries
//     into an overloaded ring.
//
// Grows add one processor and shrinks remove one.
//
// Shrinks always use drain mode: the server applies them only when
// feasible (Σwt ≤ target) and otherwise queues the target, so the scaler
// can never violate the admission invariant — feasibility stays enforced
// in exactly one place.
package autoscale

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/obs"
)

// Config bounds the control loop: MinM and MaxM bound every target the
// scaler will request (a MinM below 1 is taken as 1).
type Config struct {
	MinM, MaxM int
}

// The control loop's constants.
const (
	// quantile of the windowed lag distribution the thresholds compare
	// against.
	quantile = 0.9
	// growAt is the lag (in quanta) at or above which a window votes to
	// grow. Theorem 3 bounds steady-state tardiness by one quantum, so
	// sustained lag near 1 means the tenant is running at the edge of its
	// bound.
	growAt = 0.75
	// shrinkAt is the lag at or below which a window votes to shrink.
	// Idle windows (no dispatches) also vote to shrink.
	shrinkAt = 0.25
	// holdUp / holdDown are how many consecutive windows must vote the
	// same way before the scaler acts — shedding capacity is cheaper to
	// delay than missing deadlines.
	holdUp, holdDown = 2, 3
	// cooldown is the per-tenant quiet period after an action; an action
	// the server answers with overload backs off twice as long.
	cooldown = 30 * time.Second
	// rate (actions per second) and burst parameterize the shared token
	// bucket all actions pass through.
	rate, burst = 1.0, 4
	// interval is Run's scrape/decide period.
	interval = 5 * time.Second
)

// Action is one resize the scaler attempted during a Tick.
type Action struct {
	Tenant string
	Target int
	Drain  bool // always true for shrinks
	Err    error
}

// Report summarizes one Tick.
type Report struct {
	Actions []Action
	// Shed counts decisions dropped by the empty token bucket. Shed
	// decisions keep their streaks, so the intent survives to the next
	// tick — only the API call is suppressed.
	Shed int
}

// bucket is a standard token bucket, refilled continuously at rate and
// holding at most burst tokens.
type bucket struct {
	tokens float64
	last   time.Time
}

func (b *bucket) take(now time.Time) bool {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * rate
	}
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenantState is the controller memory for one tenant.
type tenantState struct {
	prev         obs.Snapshot // cumulative lag histogram at the last tick
	havePrev     bool
	up, down     int       // consecutive grow / shrink votes
	quiet        time.Time // no actions before this instant
	lastObserved time.Time // for garbage-collecting deleted tenants
}

// verdict is one window's vote.
type verdict int

const (
	hold verdict = iota
	growVote
	shrinkVote
)

// classify turns one windowed snapshot into a vote. An empty window (no
// dispatches) is a shrink vote: a tenant that dispatched nothing all
// window has no use for spare processors.
func classify(window obs.Snapshot) verdict {
	if window.Count == 0 {
		return shrinkVote
	}
	q := window.Quantile(quantile)
	switch {
	case q >= growAt:
		return growVote
	case q <= shrinkAt:
		return shrinkVote
	default:
		return hold
	}
}

// diffWindow subtracts the previous cumulative snapshot from the current
// one, yielding the distribution of only this window's observations. A
// shrunk count or changed bucket layout means the counter reset (server
// restart or failover); the whole current snapshot is the window then.
func diffWindow(cur, prev obs.Snapshot) obs.Snapshot {
	if len(cur.Buckets) != len(prev.Buckets) || cur.Count < prev.Count {
		return cur
	}
	out := obs.Snapshot{
		Bounds:  cur.Bounds,
		Buckets: make([]uint64, len(cur.Buckets)),
		Count:   cur.Count - prev.Count,
		Sum:     cur.Sum - prev.Sum,
	}
	for i := range cur.Buckets {
		if cur.Buckets[i] < prev.Buckets[i] {
			return cur
		}
		out.Buckets[i] = cur.Buckets[i] - prev.Buckets[i]
	}
	return out
}

// Scaler is the autoscaling control loop. Create one with New (against a
// live server through a client) or NewFuncs (tests inject scrape/resize
// and a fake clock), then call Run, or Tick on a cadence of the caller's
// own — the scaler is cadence-agnostic because all its signals are
// windowed deltas.
type Scaler struct {
	cfg     Config
	clock   obs.Clock
	scrape  func(ctx context.Context) (string, error)
	resize  func(ctx context.Context, tenant string, m int, drain bool) error
	bucket  bucket
	tenants map[string]*tenantState
}

// New builds a scaler that scrapes and resizes through cl.
func New(cfg Config, cl *client.Client) *Scaler {
	return NewFuncs(cfg, obs.Real{},
		func(ctx context.Context) (string, error) { return cl.Metrics(ctx) },
		func(ctx context.Context, tenant string, m int, drain bool) error {
			_, err := cl.Resize(ctx, tenant, m, drain)
			return err
		})
}

// NewFuncs builds a scaler from its raw dependencies.
func NewFuncs(cfg Config, clock obs.Clock,
	scrape func(ctx context.Context) (string, error),
	resize func(ctx context.Context, tenant string, m int, drain bool) error) *Scaler {
	cfg.MinM = max(cfg.MinM, 1)
	return &Scaler{
		cfg:     cfg,
		clock:   clock,
		scrape:  scrape,
		resize:  resize,
		bucket:  bucket{tokens: burst},
		tenants: map[string]*tenantState{},
	}
}

// tenantSample is what one scrape says about one tenant.
type tenantSample struct {
	id       string
	m        int
	pendingM int
	lag      obs.Snapshot
}

// parseScrape extracts every tenant's capacity gauges and cumulative lag
// histogram from one /metrics page. The pfaird_tenant_m gauge is the
// tenant roster: a tenant without it has nothing to resize.
func parseScrape(text string) ([]tenantSample, error) {
	exp, err := obs.ParseExposition(text)
	if err != nil {
		return nil, err
	}
	mf := exp.Family("pfaird_tenant_m")
	if mf == nil {
		return nil, errors.New("autoscale: scrape has no pfaird_tenant_m family (server too old?)")
	}
	var out []tenantSample
	for _, s := range mf.Samples {
		id := s.Label("tenant")
		if id == "" {
			continue
		}
		ts := tenantSample{id: id, m: int(s.Value)}
		if pf := exp.Family("pfaird_tenant_pending_m"); pf != nil {
			for _, p := range pf.Samples {
				if p.Label("tenant") == id {
					ts.pendingM = int(p.Value)
				}
			}
		}
		lag, err := exp.Histogram("pfaird_tenant_dispatch_lag_quanta",
			[]obs.Label{{Name: "tenant", Value: id}})
		if err != nil {
			return nil, fmt.Errorf("autoscale: tenant %s: %v", id, err)
		}
		ts.lag = lag
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out, nil
}

// isOverload reports whether err is the server telling us to back off:
// ring-full backpressure (429) or unavailability (503).
func isOverload(err error) bool {
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable
}

// Tick runs one control round: scrape, window, vote, act. It returns
// what it did; a scrape or parse failure returns an error and changes
// nothing (the previous snapshots are kept, so the next successful tick
// windows across the gap instead of losing it).
func (s *Scaler) Tick(ctx context.Context) (Report, error) {
	var rep Report
	text, err := s.scrape(ctx)
	if err != nil {
		return rep, err
	}
	samples, err := parseScrape(text)
	if err != nil {
		return rep, err
	}
	now := s.clock.Now()

	for _, sm := range samples {
		st := s.tenants[sm.id]
		if st == nil {
			st = &tenantState{}
			s.tenants[sm.id] = st
		}
		st.lastObserved = now
		if !st.havePrev {
			// First sighting: everything in the cumulative histogram is
			// pre-history. Establish the baseline and vote next tick.
			st.prev, st.havePrev = sm.lag, true
			continue
		}
		window := diffWindow(sm.lag, st.prev)
		st.prev = sm.lag

		switch classify(window) {
		case growVote:
			st.up, st.down = st.up+1, 0
		case shrinkVote:
			st.down, st.up = st.down+1, 0
		default:
			st.up, st.down = 0, 0
		}
		if now.Before(st.quiet) {
			continue
		}

		target, drain := 0, false
		switch {
		case st.up >= holdUp && sm.m < s.cfg.MaxM:
			target = sm.m + 1
		case st.down >= holdDown && sm.m > s.cfg.MinM && sm.pendingM == 0:
			target, drain = sm.m-1, true
		default:
			continue
		}
		if !s.bucket.take(now) {
			rep.Shed++ // streaks survive; the next tick retries
			continue
		}
		err := s.resize(ctx, sm.id, target, drain)
		rep.Actions = append(rep.Actions, Action{Tenant: sm.id, Target: target, Drain: drain, Err: err})
		st.up, st.down = 0, 0
		st.quiet = now.Add(cooldown)
		if isOverload(err) {
			// Backpressure: the server wants fewer commands, so the
			// tenant backs off twice as long as a normal cooldown.
			st.quiet = now.Add(2 * cooldown)
		}
	}

	// Forget tenants that disappeared from the exposition.
	for id, st := range s.tenants {
		if !st.lastObserved.Equal(now) {
			delete(s.tenants, id)
		}
	}
	return rep, nil
}

// Run ticks the scaler every interval until ctx is cancelled, reporting
// actions and errors through logf (nil discards). It is what pfaird's
// -autoscale flag starts.
func (s *Scaler) Run(ctx context.Context, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		s.tickAndLog(ctx, logf)
	}
}

// tickAndLog runs one Tick and reports what it did through logf.
func (s *Scaler) tickAndLog(ctx context.Context, logf func(format string, args ...any)) {
	rep, err := s.Tick(ctx)
	if err != nil {
		logf("autoscale: tick: %v", err)
		return
	}
	for _, a := range rep.Actions {
		if a.Err != nil {
			logf("autoscale: resize %s → %d (drain=%v): %v", a.Tenant, a.Target, a.Drain, a.Err)
		} else {
			logf("autoscale: resized %s → %d (drain=%v)", a.Tenant, a.Target, a.Drain)
		}
	}
	if rep.Shed > 0 {
		logf("autoscale: shed %d action(s) at the token bucket", rep.Shed)
	}
}
