package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/wal"
)

// TestWritePathGolden is the characterization test of the tenant write
// path: a fixed script of every command a tenant takes is driven straight
// through the drainer's appliers on a tenant core that takes no command (so a
// coalesced run of single submits can be handed over exactly as a drainer
// would drain it), and everything the write path produces is recorded —
// each wal.Record handed to the journal hook (a submit group is one
// record with a jobs list), each command's response and commit, each trace event under a
// fake clock, the published TenantInfo after every step, and the
// executive checkpoint at two points. The file was generated before the
// write path was folded onto one ledger, one journal step and one submit
// applier; it must not change. Regenerate only for an intended behaviour
// change: go test ./internal/server -run WritePathGolden -update.
func TestWritePathGolden(t *testing.T) {
	g := newWritePathScript(t, "gold", true)
	journaledScript(g)

	// Delete, tenant side: after the stop, a command answers the deleted
	// tenant's refusal.
	g.step("stop", &command{stop: true})
	after := g.submit(SubmitJobRequest{Task: "c"})
	g.line("sent after stop", g.view(after, g.tn.exec(after)))
	select {
	case <-g.tn.Closed():
	default:
		t.Error("stop left Closed() open")
	}

	// An in-memory tenant has no journal hooks: same appliers, no records,
	// no wal-append stage.
	mem := newWritePathScript(t, "mem", false)
	mem.step("in-memory: register a 1/2", mem.register("a", model.W(1, 2)))
	mem.step("in-memory: submit a key=k1", mem.submit(SubmitJobRequest{Task: "a", Key: "k1"}))
	mem.step("in-memory: coalesced run of two",
		mem.submit(SubmitJobRequest{Task: "a"}), mem.submit(SubmitJobRequest{Task: "a", Key: "k1"}))
	mem.step("in-memory: batch of two", mem.batch(SubmitJobRequest{Task: "a"}, SubmitJobRequest{Task: "a", At: "1"}))
	mem.step("in-memory: advance by 2", mem.advance("", "2"))
	mem.step("in-memory: shrink to 1 with drain applies at once", mem.resize(1, true))
	mem.step("in-memory: drain", mem.drain())
	mem.step("in-memory: unregister a", mem.unregister("a"))

	got := g.out.String() + mem.out.String()
	golden := filepath.Join("testdata", "writepath.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("write path drifted from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("write path drifted from golden: %d lines, want %d", len(gl), len(wl))
	}
}

// TestTraceDispatchMatchesDigest: for every command of the journaled
// write-path script, the trace and the journal say the same of its
// decisions. A command that decided has one dispatch event, right before
// its apply stage, naming the dseq and count of the one dispatch digest
// record journaled for it; a command that decided nothing — a failed
// advance, an advance with nothing pending, every other command — has
// neither.
func TestTraceDispatchMatchesDigest(t *testing.T) {
	g := newWritePathScript(t, "agree", true)
	deciding := 0
	g.check = func(label string, recs []wal.Record, events []obs.Event) {
		var digests []wal.Record
		for _, r := range recs {
			if r.Op == wal.OpDispatch {
				digests = append(digests, r)
			}
		}
		var disp []int
		for i, ev := range events {
			if ev.Stage == obs.StageDispatch {
				disp = append(disp, i)
			}
		}
		if len(disp) != len(digests) {
			t.Errorf("%s: %d dispatch events, %d dispatch digests", label, len(disp), len(digests))
			return
		}
		for k, i := range disp {
			ev, r := events[i], digests[k]
			if ev.DSeq != r.DSeq || ev.Count != r.Count || ev.Count < 1 {
				t.Errorf("%s: dispatch event covers [%d, +%d), its digest [%d, +%d)", label, ev.DSeq, ev.Count, r.DSeq, r.Count)
			}
			if i+1 == len(events) || events[i+1].Cmd != ev.Cmd || events[i+1].Stage != obs.StageApply {
				t.Errorf("%s: dispatch event of command %d is not followed by its apply", label, ev.Cmd)
			}
			deciding++
		}
	}
	journaledScript(g)
	g.step("advance with nothing pending", g.advance("", "1"))
	if deciding != 4 {
		t.Errorf("%d commands decided, want the script's 4", deciding)
	}
}

// journaledScript is the write-path script's journaled part: every command,
// accepted and refused, with the journal up and down.
func journaledScript(g *writePathScript) {
	g.t.Helper()
	g.step("register a 1/2", g.register("a", model.W(1, 2)))
	g.step("register b 1/1", g.register("b", model.W(1, 1)))
	g.step("register c 1/2: Σwt = M exactly", g.register("c", model.W(1, 2)))
	g.step("register d 1/4: M + 1/4 rejected", g.register("d", model.W(1, 4)))
	g.step("register a again", g.register("a", model.W(1, 8)))
	g.step("register unnamed", g.register("", model.W(1, 8)))
	g.step("register weight 3/2", g.register("e", model.W(3, 2)))
	g.step("register period beyond MaxPeriod", g.register("e", model.W(1, MaxPeriod+1)))

	g.step("submit a key=k1", g.submit(SubmitJobRequest{Task: "a", Key: "k1"}))
	g.step("submit a key=k1 again: cached", g.submit(SubmitJobRequest{Task: "a", Key: "k1"}))
	g.step("submit b at=0 earliness=1 key=k2", g.submit(SubmitJobRequest{Task: "b", At: "0", Earliness: 1, Key: "k2"}))
	g.step("submit unknown task", g.submit(SubmitJobRequest{Task: "zz"}))
	g.step("submit negative earliness", g.submit(SubmitJobRequest{Task: "a", Earliness: -1}))

	g.step("coalesced run of four singles",
		g.submit(SubmitJobRequest{Task: "a", Key: "r1"}),
		g.submit(SubmitJobRequest{Task: "c"}),
		g.submit(SubmitJobRequest{Task: "b", Key: "r2"}),
		g.submit(SubmitJobRequest{Task: "a", At: "0"}))
	g.step("coalesced run: seen key, bad task, key twice, plain",
		g.submit(SubmitJobRequest{Task: "a", Key: "r1"}),
		g.submit(SubmitJobRequest{Task: "zz"}),
		g.submit(SubmitJobRequest{Task: "c", Key: "r3"}),
		g.submit(SubmitJobRequest{Task: "c", Key: "r3"}),
		g.submit(SubmitJobRequest{Task: "b"}))

	g.step("batch of three", g.batch(
		SubmitJobRequest{Task: "a"}, SubmitJobRequest{Task: "b", Key: "b1"}, SubmitJobRequest{Task: "c", At: "0"}))
	g.step("batch with one bad job", g.batch(SubmitJobRequest{Task: "a"}, SubmitJobRequest{Task: "zz"}))

	g.step("advance by 3/2", g.advance("", "3/2"))
	g.step("advance until 1: in the past", g.advance("1", ""))
	g.step("advance with until and by", g.advance("4", "1"))

	g.step("grow to 3", g.resize(3, false))
	g.step("shrink to 1: rejected", g.resize(1, false))
	g.step("shrink to 1 with drain: queued", g.resize(1, true))
	g.checkpoint("checkpoint with a shrink queued")
	g.step("register e 1/4 against the queued target", g.register("e", model.W(1, 4)))
	g.step("resize to 0", g.resize(0, false))
	g.step("unregister a with work pending", g.unregister("a"))
	g.step("unregister unknown", g.unregister("zz"))

	g.step("drain", g.drain())
	g.step("unregister a: Σwt = 3/2 still above the target", g.unregister("a"))
	g.step("unregister b: the queued shrink applies", g.unregister("b"))
	g.step("submit c on one processor", g.submit(SubmitJobRequest{Task: "c"}))
	g.step("advance until 20", g.advance("20", ""))
	g.step("resize to 2 with drain: a grow applies at once", g.resize(2, true))
	g.step("register a again after its release", g.register("a", model.W(3, 4)))

	g.journalDown = errors.New("journal down")
	g.step("journal down: register f", g.register("f", model.W(1, 4)))
	g.step("journal down: submit c", g.submit(SubmitJobRequest{Task: "c", Key: "lost"}))
	g.step("journal down: advance", g.advance("", "1"))
	g.step("journal down: unregister c", g.unregister("c"))
	g.step("journal down: resize", g.resize(3, false))
	g.journalDown = nil
	g.step("journal back: submit c key=lost applies", g.submit(SubmitJobRequest{Task: "c", Key: "lost"}))
	g.step("drain again", g.drain())
	g.checkpoint("final checkpoint")
}

// writePathScript drives one not-started tenant core command by command
// and renders what the write path did as text lines.
type writePathScript struct {
	t           *testing.T
	tn          *Tenant
	out         strings.Builder
	lsn         uint64 // journal position the recording hooks hand out
	traced      int64  // trace events already rendered
	journalDown error  // when set, the hooks refuse with it
	// check, when set, sees each step's journaled records and trace events.
	check    func(label string, recs []wal.Record, events []obs.Event)
	stepRecs []wal.Record
	// views renders, for each command a constructor built, the answer its
	// closure captured.
	views map[*command]func(*resultView)
}

func newWritePathScript(t *testing.T, id string, journaled bool) *writePathScript {
	tn := newWritePathCore(t, id, 2, newServerObs(obs.NewFake(time.Unix(1_700_000_000, 0).UTC(), time.Millisecond)), journaled)
	g := &writePathScript{t: t, tn: tn, views: map[*command]func(*resultView){}}
	if journaled {
		tn.SetJournal(
			func(r wal.Record) (wal.Commit, error) { return g.journal("append", r) },
			nil, // a group is one record too: the tenant has no other call
			func(err error) { g.line("journal fail", err.Error()) },
		)
	}
	tn.publish()
	return g
}

// submit builds a single submit; its answer is its cmdResult's own.
func (g *writePathScript) submit(req SubmitJobRequest) *command { return &command{job: req.job()} }

// cmd builds a command that runs fn on the loop; view renders the answer
// fn captured.
func (g *writePathScript) cmd(fn func() (wal.Commit, error), view func(*resultView)) *command {
	c := &command{fn: fn}
	g.views[c] = view
	return c
}

func (g *writePathScript) register(name string, w model.Weight) *command {
	var d admission.Decision
	return g.cmd(func() (c wal.Commit, err error) {
		d, c, err = g.tn.applyRegister(name, w)
		return c, err
	}, func(v *resultView) { v.Admitted, v.Reason = &d.Admitted, d.Reason })
}

func (g *writePathScript) unregister(name string) *command {
	return g.cmd(func() (wal.Commit, error) { return g.tn.applyUnregister(name) }, nil)
}

func (g *writePathScript) batch(reqs ...SubmitJobRequest) *command {
	var resp SubmitJobsResponse
	return g.cmd(func() (c wal.Commit, err error) {
		results := make([]SubmitJobResponse, len(reqs))
		if c, err = g.tn.applySubmitBatch(jobsOf(reqs), results); err == nil {
			resp = SubmitJobsResponse{Accepted: len(reqs), Results: results}
		}
		return c, err
	}, func(v *resultView) { v.Batch = &resp })
}

func (g *writePathScript) advance(until, by string) *command {
	var resp AdvanceResponse
	return g.cmd(func() (c wal.Commit, err error) {
		resp, c, err = g.tn.applyAdvance(until, by)
		return c, err
	}, func(v *resultView) { v.Advance = &resp })
}

func (g *writePathScript) drain() *command {
	var resp AdvanceResponse
	return g.cmd(func() (c wal.Commit, err error) {
		resp, c, err = g.tn.applyDrain()
		return c, err
	}, func(v *resultView) { v.Advance = &resp })
}

func (g *writePathScript) resize(m int, drain bool) *command {
	var resp ResizeResponse
	return g.cmd(func() (c wal.Commit, err error) {
		resp, c, err = g.tn.applyResize(m, drain)
		return c, err
	}, func(v *resultView) { v.Resize = &resp })
}

// jobsOf converts requests the way SubmitJobs does, for tests that call
// applySubmitBatch on the loop themselves.
func jobsOf(reqs []SubmitJobRequest) []wal.Job {
	jobs := make([]wal.Job, len(reqs))
	for i := range reqs {
		jobs[i] = reqs[i].job()
	}
	return jobs
}

// processFn hands fn to an unpublished tenant core as a drainer
// would, and returns what completed it.
func processFn(tn *Tenant, fn func() (wal.Commit, error)) cmdResult {
	c := &command{fn: fn, done: make(chan cmdResult, 1)}
	tn.process(c)
	return <-c.done
}

// journal is the recording hook: it assigns the LSN the way wal.Log does
// and returns the record's commit.
func (g *writePathScript) journal(call string, rec wal.Record) (wal.Commit, error) {
	if g.journalDown != nil {
		g.line("journal "+call+" refused", []wal.Record{rec})
		return wal.Commit{}, g.journalDown
	}
	g.lsn++
	rec.LSN = g.lsn
	g.stepRecs = append(g.stepRecs, rec)
	g.line("journal "+call, []wal.Record{rec})
	return wal.Commit{LSN: g.lsn}, nil
}

// step hands cmds to the appliers the way a drainer would after
// taking them off the queue together — a run of single submits as one
// run, anything else alone — and renders responses, new trace events and
// the published snapshot.
func (g *writePathScript) step(label string, cmds ...*command) {
	g.t.Helper()
	fmt.Fprintf(&g.out, "## %s\n", label)
	for _, c := range cmds {
		c.done = make(chan cmdResult, 1)
	}
	if cmds[0].single() {
		g.tn.processSubmitRun(cmds)
	} else if len(cmds) != 1 {
		g.t.Fatalf("%s: only single submits coalesce", label)
	} else {
		g.tn.process(cmds[0])
	}
	for _, c := range cmds {
		select {
		case res := <-c.done:
			g.line("response", g.view(c, res))
		default:
			g.t.Fatalf("%s: command left incomplete", label)
		}
	}
	frames, n, dropped := g.tn.traceRing().AppendFrames(nil, g.traced, math.MaxInt)
	if dropped != 0 {
		g.t.Fatalf("%s: trace ring dropped %d events", label, dropped)
	}
	events := make([]obs.Event, n)
	dec := json.NewDecoder(bytes.NewReader(frames))
	for i := range events {
		if err := dec.Decode(&events[i]); err != nil {
			g.t.Fatalf("%s: trace frame %d of %q: %v", label, i, frames, err)
		}
	}
	for _, ev := range events {
		g.line("trace", ev)
	}
	g.traced += int64(len(events))
	g.line("info", g.tn.Info())
	if g.check != nil {
		g.check(label, g.stepRecs, events)
	}
	g.stepRecs = g.stepRecs[:0]
}

func (g *writePathScript) checkpoint(label string) {
	fmt.Fprintf(&g.out, "## %s\n", label)
	g.line("exec", g.tn.ex.Checkpoint())
	var keys []string
	for _, e := range g.tn.idem.entries() {
		keys = append(keys, e.Key)
	}
	g.line("idem", keys)
}

func (g *writePathScript) line(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		g.t.Fatal(err)
	}
	fmt.Fprintf(&g.out, "%s %s\n", kind, b)
}

// resultView is what the script renders of a command's answer: the part
// the command fills in, its commit and its error.
type resultView struct {
	Submit   *SubmitJobResponse  `json:"submit,omitempty"`
	Batch    *SubmitJobsResponse `json:"batch,omitempty"`
	Advance  *AdvanceResponse    `json:"advance,omitempty"`
	Resize   *ResizeResponse     `json:"resize,omitempty"`
	Admitted *bool               `json:"admitted,omitempty"`
	Reason   string              `json:"reason,omitempty"`
	Commit   uint64              `json:"commit"`
	Err      string              `json:"err,omitempty"`
}

// view renders c's answer: a single submit's from res, any other's through
// the view its constructor registered.
func (g *writePathScript) view(c *command, res cmdResult) resultView {
	v := resultView{Commit: res.commit.LSN}
	switch {
	case res.err != nil:
		v.Err = res.err.Error()
	case c.single():
		v.Submit = &res.submit
	case g.views[c] != nil:
		g.views[c](&v)
	}
	return v
}

// newWritePathCore builds a tenant that takes no command, so the
// script's goroutine is the one that owns the drainer-owned state; o is its
// observability (nil: standalone sinks), journaled fixes its log's form.
func newWritePathCore(t *testing.T, id string, m int, o *serverObs, journaled bool) *Tenant {
	pol, err := PolicyByName("")
	if err != nil {
		t.Fatal(err)
	}
	return newTenantCore(id, pol.Name(), online.New(m, pol), o, journaled)
}
