package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/server"
)

// Target abstracts what a scenario drives: the in-process executive
// (ExecTarget) or a live pfaird over HTTP (HTTPTarget). Submission order
// is the workload's global arrival order; Finish drains the client and
// returns its complete dispatch log in decision order.
type Target interface {
	Setup(c ClientSetup, m int, policy string) error
	Submit(clientID, task string, at rat.Rat) error
	Finish(clientID string) ([]server.DispatchEvent, error)
}

// ExecTarget drives one online.Executive per client, all in-process. It
// retains the executives after the run so tests can cross-examine the
// generated task systems (e.g. against the exhaustive oracle).
type ExecTarget struct {
	Execs map[string]*online.Executive
}

// NewExecTarget returns an empty in-process target.
func NewExecTarget() *ExecTarget {
	return &ExecTarget{Execs: map[string]*online.Executive{}}
}

// Setup creates the client's executive and registers its tasks.
func (e *ExecTarget) Setup(c ClientSetup, m int, policy string) error {
	p, err := server.PolicyByName(policy)
	if err != nil {
		return err
	}
	ex := online.New(m, p)
	for _, ts := range c.Tasks {
		if _, err := ex.Register(ts.Name, model.W(ts.E, ts.P)); err != nil {
			return fmt.Errorf("scenario: client %s: %w", c.ID, err)
		}
	}
	e.Execs[c.ID] = ex
	return nil
}

// Submit releases one job.
func (e *ExecTarget) Submit(clientID, task string, at rat.Rat) error {
	ex := e.Execs[clientID]
	if ex == nil {
		return fmt.Errorf("scenario: unknown client %s", clientID)
	}
	t := ex.Task(task)
	if t == nil {
		return fmt.Errorf("scenario: client %s has no task %s", clientID, task)
	}
	return ex.SubmitJob(t, at)
}

// Finish drains the client's executive and converts its schedule into the
// wire dispatch-event shape, exactly as internal/server records it.
func (e *ExecTarget) Finish(clientID string) ([]server.DispatchEvent, error) {
	ex := e.Execs[clientID]
	if ex == nil {
		return nil, fmt.Errorf("scenario: unknown client %s", clientID)
	}
	if _, err := ex.Drain(nil); err != nil {
		return nil, fmt.Errorf("scenario: drain %s: %w", clientID, err)
	}
	asgs := ex.Schedule().Assignments()
	evs := make([]server.DispatchEvent, 0, len(asgs))
	for i, a := range asgs {
		deadline := a.Sub.Deadline()
		evs = append(evs, server.DispatchEvent{
			Seq:       int64(i),
			Task:      a.Sub.Task.Name,
			Index:     a.Sub.Index,
			Proc:      a.Proc,
			Start:     a.Start.String(),
			Finish:    a.Finish().String(),
			Deadline:  deadline,
			Tardiness: sched.Tardiness(a.Finish(), deadline).String(),
		})
	}
	return evs, nil
}

// CallTimeout bounds each request an HTTPTarget sends, the dispatch replay
// of Finish included: a server that stops answering fails the run instead of
// hanging it.
const CallTimeout = 30 * time.Second

// withTimeout is context.WithTimeout; a test swaps it to expire a call on
// cue.
var withTimeout = context.WithTimeout

// HTTPTarget drives a live pfaird (or a router front) through the typed
// client: one tenant per scenario client. Dispatch logs are collected by
// replaying the tenant's dispatch stream from decision 0 after the drain,
// so the recorded trace reflects what the service actually did, not what
// the generator hoped. Each request runs under Ctx and CallTimeout.
type HTTPTarget struct {
	Ctx context.Context
	C   *client.Client
}

// bounded is Ctx for one request.
func (h *HTTPTarget) bounded() (context.Context, context.CancelFunc) {
	return withTimeout(h.Ctx, CallTimeout)
}

// Setup creates the tenant and registers its tasks, failing on any
// admission rejection — a validated spec fits by construction, so a
// rejection means the server disagrees and the scenario is void.
func (h *HTTPTarget) Setup(c ClientSetup, m int, policy string) error {
	ctx, cancel := h.bounded()
	_, err := h.C.CreateTenant(ctx, c.ID, m, policy)
	cancel()
	if err != nil {
		return fmt.Errorf("scenario: create tenant %s: %w", c.ID, err)
	}
	for _, ts := range c.Tasks {
		ctx, cancel := h.bounded()
		resp, err := h.C.RegisterTask(ctx, c.ID, ts.Name, model.W(ts.E, ts.P))
		cancel()
		if err != nil {
			return fmt.Errorf("scenario: register %s/%s: %w", c.ID, ts.Name, err)
		}
		if !resp.Admitted {
			return fmt.Errorf("scenario: register %s/%s rejected: %s", c.ID, ts.Name, resp.Reason)
		}
	}
	return nil
}

// Submit releases one job at an explicit virtual time.
func (h *HTTPTarget) Submit(clientID, task string, at rat.Rat) error {
	ctx, cancel := h.bounded()
	defer cancel()
	if _, err := h.C.SubmitJob(ctx, clientID, task, at.String()); err != nil {
		return fmt.Errorf("scenario: submit %s/%s: %w", clientID, task, err)
	}
	return nil
}

// Finish drains the tenant and replays its full dispatch log.
func (h *HTTPTarget) Finish(clientID string) ([]server.DispatchEvent, error) {
	ctx, cancel := h.bounded()
	_, err := h.C.Drain(ctx, clientID)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("scenario: drain %s: %w", clientID, err)
	}
	ctx, cancel = h.bounded()
	defer cancel()
	st, err := h.C.StreamDispatches(ctx, clientID, 0, false)
	if err != nil {
		return nil, fmt.Errorf("scenario: stream %s: %w", clientID, err)
	}
	defer st.Close()
	var evs []server.DispatchEvent
	for {
		ev, err := st.Next()
		if errors.Is(err, io.EOF) {
			return evs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: stream %s: %w", clientID, err)
		}
		evs = append(evs, ev)
	}
}

// Result is one scenario run: the per-client dispatch logs, the report,
// and the full framed-trace record sequence.
type Result struct {
	Dispatches map[string][]server.DispatchEvent
	Report     *Report
	Records    []Record
}

// Run executes a workload against a target: set up every client (sorted),
// submit every arrival in global order, drain every client, then build
// the report and the trace. The trace layout is header, arrivals in
// submission order, dispatches grouped by client (clients sorted by id,
// decisions in order), end summary — a deterministic function of the
// dispatch logs.
func Run(w *Workload, tgt Target) (*Result, error) {
	for _, c := range w.Clients {
		if err := tgt.Setup(c, w.Spec.M, w.Spec.Policy); err != nil {
			return nil, err
		}
	}
	for _, a := range w.Arrivals {
		if err := tgt.Submit(a.Client, a.Task, a.At); err != nil {
			return nil, fmt.Errorf("scenario: arrival %d: %w", a.Seq, err)
		}
	}
	disp := make(map[string][]server.DispatchEvent, len(w.Clients))
	for _, c := range w.Clients {
		evs, err := tgt.Finish(c.ID)
		if err != nil {
			return nil, err
		}
		disp[c.ID] = evs
	}
	rep := BuildReport(w, disp)
	return &Result{
		Dispatches: disp,
		Report:     rep,
		Records:    buildRecords(w, disp, rep),
	}, nil
}

// buildRecords lays out the trace record sequence for a run.
func buildRecords(w *Workload, disp map[string][]server.DispatchEvent, rep *Report) []Record {
	recs := make([]Record, 0, 2+len(w.Arrivals))
	recs = append(recs, Record{Kind: KindHeader, Version: TraceVersion, Spec: w.Spec})
	for _, a := range w.Arrivals {
		recs = append(recs, Record{
			Kind: KindArrival, Client: a.Client, Task: a.Task, Class: a.Class, At: a.At.String(),
		})
	}
	clients := slices.Clone(w.Clients)
	slices.SortFunc(clients, func(a, b ClientSetup) int { return strings.Compare(a.ID, b.ID) })
	for _, c := range clients {
		for _, ev := range disp[c.ID] {
			recs = append(recs, dispatchRecord(c.ID, c.Class, ev))
		}
	}
	recs = append(recs, rep.endRecord())
	return recs
}
