package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// epoch anchors every timestamp the benchmark takes: span times are
// monotonic nanoseconds since process start.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// opKind names the operations a plan is made of.
type opKind uint8

const (
	kCreate opKind = iota
	kRegister
	kSubmit // one keyed job
	kBatch  // one jobs:batch
	kAdvance
	kDrain
	kInfo
	kDelete
	kRef // one reference round trip (ref.go): the benchmark's own server, not the program
	nKinds
)

var kindNames = [nKinds]string{"create", "register", "submit", "batch", "advance", "drain", "info", "delete", "ref"}

// opTime is what a target reports for one call into its layer: the span
// it measured (each target owns its boundaries — the HTTP target times the
// whole client call, the handler target only ServeHTTP), the time spent in
// instrumented calls beneath it (journal hooks), and the decisions made.
type opTime struct {
	t0, t1     int64
	child      int64
	dispatched int64
}

// target is one depth at which a plan's operations can be applied: over
// HTTP to a separate process, or in-process at a public entry point
// further down (layers.go). The runner below drives them all with the
// identical operation sequence.
type target interface {
	create(p *plan) (opTime, error)
	register(p *plan, t taskSpec) (opTime, error)
	submit(p *plan, task, key string) (opTime, error)
	submitBatch(p *plan, tasks []string) (opTime, error)
	advance(p *plan, by int64) (opTime, error)
	drain(p *plan) (opTime, error)
	info(p *plan) (server.TenantInfo, opTime, error)
	remove(p *plan) (opTime, error)
}

// span is one traced call. Root spans (parent 0) are the operations of
// the HTTP pass; the in-process replays of the same operation sequence
// reuse the operation's id as their parent.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Tenant  string `json:"tenant"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// level is the depth a recorder's calls were made at.
type level int64

const (
	lvHTTP level = iota // over the socket, through internal/client
	lvHandler
	lvTenant
	lvEngine
)

var levelNames = [...]string{"http", "handler", "tenant", "engine"}

// recorder collects what one client goroutine measured. It is owned by
// that goroutine until the run ends.
type recorder struct {
	client int
	level  level
	trace  bool
	lat    [nKinds][]int64 // span durations, ns
	child  [nKinds][]int64 // time beneath the span, ns (only targets that report it)
	spans  []span
	ops    int64 // operations attempted (also the per-client op sequence)
	failed int64
	errs   []string
	// dispatched is the decision count acknowledged so far, per tenant.
	dispatched map[string]int64
	// onAdvance, if set, sees every acknowledged advance: its span and the
	// tenant's cumulative decision count (stream_tail's delivery timing).
	onAdvance func(p *plan, ot opTime, cum int64)
	// ref, if set, is called once after every acknowledged advance: the
	// reference round trip the run's times are scaled by (ref.go).
	ref func() (opTime, error)
	// checks counts output checks made; checkFailed those that failed.
	checks, checkFailed int64
	retries429          int64
}

func newRecorder(client int, lv level, trace bool) *recorder {
	return &recorder{client: client, level: lv, trace: trace, dispatched: map[string]int64{}}
}

// note files one finished call.
func (r *recorder) note(k opKind, p *plan, ot opTime, err error) error {
	r.ops++
	if err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("%s %s: %v", kindNames[k], p.id, err))
		return err
	}
	r.lat[k] = append(r.lat[k], ot.t1-ot.t0)
	r.child[k] = append(r.child[k], ot.child)
	if r.trace {
		id := int64(r.client+1)<<40 | r.ops
		sp := span{ID: id, Name: levelNames[r.level] + "." + kindNames[k], Tenant: p.id, StartNs: ot.t0, EndNs: ot.t1}
		if r.level != lvHTTP {
			// Same client, same op sequence number: the HTTP pass's root.
			sp.Parent = id
			sp.ID = id | int64(r.level)<<60
		}
		r.spans = append(r.spans, sp)
	}
	return nil
}

func (r *recorder) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.checkFailed++
		r.errs = append(r.errs, "check: "+fmt.Sprintf(format, args...))
	}
}

// runStages drives one client's stages against t, closed loop. If
// prepared is true the first stage's tenants already exist with their
// tasks registered (set-up did it, timed separately as setup_s). The
// first failed operation ends the client: the workloads are chosen so that
// none fails, and everything after a failure would be measured on a
// different state than the plan describes.
func runStages(t target, stages []stage, rec *recorder, prepared bool) error {
	var key []byte
	var names []string
	for si, st := range stages {
		if !(prepared && si == 0) {
			for _, p := range st {
				if err := prepare(t, p, rec); err != nil {
					return err
				}
			}
		}
		for r := 0; ; r++ {
			live := false
			for _, p := range st {
				if r >= len(p.rounds) {
					continue
				}
				live = true
				jobs := p.rounds[r]
				if p.batch {
					names = names[:0]
					for _, ti := range jobs {
						names = append(names, p.tasks[ti].name)
					}
					ot, err := t.submitBatch(p, names)
					if rec.note(kBatch, p, ot, err) != nil {
						return err
					}
				} else {
					for i, ti := range jobs {
						key = strconv.AppendInt(append(key[:0], 'r'), int64(r), 10)
						key = strconv.AppendInt(append(key, 'j'), int64(i), 10)
						ot, err := t.submit(p, p.tasks[ti].name, string(key))
						if rec.note(kSubmit, p, ot, err) != nil {
							return err
						}
					}
				}
				ot, err := t.advance(p, p.slots)
				if rec.note(kAdvance, p, ot, err) != nil {
					return err
				}
				rec.dispatched[p.id] += ot.dispatched
				if rec.onAdvance != nil {
					rec.onAdvance(p, ot, rec.dispatched[p.id])
				}
				if rec.ref != nil {
					ot, err := rec.ref()
					if rec.note(kRef, p, ot, err) != nil {
						return err
					}
				}
			}
			if !live {
				break
			}
		}
		for _, p := range st {
			ot, err := t.drain(p)
			if rec.note(kDrain, p, ot, err) != nil {
				return err
			}
			rec.dispatched[p.id] += ot.dispatched
			info, ot, err := t.info(p)
			if rec.note(kInfo, p, ot, err) != nil {
				return err
			}
			verify(rec, p, info)
			if p.keep {
				continue
			}
			ot, err = t.remove(p)
			if rec.note(kDelete, p, ot, err) != nil {
				return err
			}
		}
	}
	return nil
}

func prepare(t target, p *plan, rec *recorder) error {
	ot, err := t.create(p)
	if rec.note(kCreate, p, ot, err) != nil {
		return err
	}
	// Set-up carries its own reference round trips (ref.go): one before
	// every sixteenth registration, the first included.
	for i, ts := range p.tasks {
		if rec.ref != nil && i%16 == 0 {
			ot, err := rec.ref()
			if rec.note(kRef, p, ot, err) != nil {
				return err
			}
		}
		ot, err := t.register(p, ts)
		if rec.note(kRegister, p, ot, err) != nil {
			return err
		}
	}
	return nil
}

// verify is the per-tenant output check: every released subtask was
// dispatched, the acknowledged advances add up to the same count, and no
// subtask finished more than one quantum late (Theorem 3).
func verify(rec *recorder, p *plan, info server.TenantInfo) {
	want := p.dispatches() + wrongBy
	rec.check(info.Dispatches == want, "%s: %d dispatches, want Σ E = %d", p.id, info.Dispatches, want)
	rec.check(rec.dispatched[p.id] == want, "%s: advances acknowledged %d dispatches, want %d", p.id, rec.dispatched[p.id], want)
	rec.check(info.Pending == 0, "%s: %d subtasks pending after drain", p.id, info.Pending)
	tard, err := rat.Parse(info.MaxTardiness)
	rec.check(err == nil && !rat.One.Less(tard), "%s: max tardiness %q exceeds 1 quantum", p.id, info.MaxTardiness)
}

// wrongBy corrupts the expected dispatch count. It is zero except in the
// smoke test that proves a failed check makes the command fail.
var wrongBy int64

// --- the HTTP target: internal/client against a separate process ---

type httpTarget struct {
	ctx context.Context
	c   *client.Client
}

// newHTTPTarget wraps a client whose 429s are retried (backpressure is a
// retry, not a failure) and counted into rec.
func newHTTPTarget(ctx context.Context, base string, hc *http.Client, rec *recorder) *httpTarget {
	c := client.New(base, hc).WithRetry(client.RetryPolicy{
		MaxAttempts: 3,
		OnRetry: func(err error) {
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
				rec.retries429++
			}
		},
	})
	return &httpTarget{ctx: ctx, c: c}
}

func timed(f func() error) (opTime, error) {
	t0 := nowNs()
	err := f()
	return opTime{t0: t0, t1: nowNs()}, err
}

func (h *httpTarget) create(p *plan) (opTime, error) {
	return timed(func() error { _, err := h.c.CreateTenant(h.ctx, p.id, p.m, ""); return err })
}

func (h *httpTarget) register(p *plan, t taskSpec) (opTime, error) {
	return timed(func() error {
		resp, err := h.c.RegisterTask(h.ctx, p.id, t.name, t.w)
		if err == nil && !resp.Admitted {
			err = fmt.Errorf("task %s not admitted: %s", t.name, resp.Reason)
		}
		return err
	})
}

func (h *httpTarget) submit(p *plan, task, key string) (opTime, error) {
	return timed(func() error {
		_, err := h.c.SubmitJobKeyed(h.ctx, p.id, server.SubmitJobRequest{Task: task, Key: key})
		return err
	})
}

// batchOf is the jobs:batch body releasing one job of each named task.
func batchOf(tasks []string) []server.SubmitJobRequest {
	jobs := make([]server.SubmitJobRequest, len(tasks))
	for i, t := range tasks {
		jobs[i].Task = t
	}
	return jobs
}

func (h *httpTarget) submitBatch(p *plan, tasks []string) (opTime, error) {
	jobs := batchOf(tasks)
	return timed(func() error {
		resp, err := h.c.SubmitJobs(h.ctx, p.id, jobs)
		if err == nil && resp.Accepted != len(jobs) {
			err = fmt.Errorf("batch accepted %d of %d", resp.Accepted, len(jobs))
		}
		return err
	})
}

func (h *httpTarget) advance(p *plan, by int64) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := timed(func() (err error) {
		resp, err = h.c.AdvanceBy(h.ctx, p.id, strconv.FormatInt(by, 10))
		return err
	})
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (h *httpTarget) drain(p *plan) (opTime, error) {
	var resp server.AdvanceResponse
	ot, err := timed(func() (err error) { resp, err = h.c.Drain(h.ctx, p.id); return err })
	ot.dispatched = resp.Dispatched
	return ot, err
}

func (h *httpTarget) info(p *plan) (server.TenantInfo, opTime, error) {
	var info server.TenantInfo
	ot, err := timed(func() (err error) { info, err = h.c.Tenant(h.ctx, p.id); return err })
	return info, ot, err
}

func (h *httpTarget) remove(p *plan) (opTime, error) {
	return timed(func() error { return h.c.DeleteTenant(h.ctx, p.id) })
}
