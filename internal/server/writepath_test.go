package server

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/online"
	"desyncpfair/internal/wal"
)

// TestWritePathGolden is the characterization test of the tenant write
// path: a fixed script of every command kind is driven straight through
// the loop's appliers on a tenant core whose loop is never started (so a
// coalesced run of single submits can be handed over exactly as runLoop
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

	g.step("register a 1/2", &command{kind: cmdRegister, name: "a", w: model.W(1, 2)})
	g.step("register b 1/1", &command{kind: cmdRegister, name: "b", w: model.W(1, 1)})
	g.step("register c 1/2: Σwt = M exactly", &command{kind: cmdRegister, name: "c", w: model.W(1, 2)})
	g.step("register d 1/4: M + 1/4 rejected", &command{kind: cmdRegister, name: "d", w: model.W(1, 4)})
	g.step("register a again", &command{kind: cmdRegister, name: "a", w: model.W(1, 8)})
	g.step("register unnamed", &command{kind: cmdRegister, w: model.W(1, 8)})
	g.step("register weight 3/2", &command{kind: cmdRegister, name: "e", w: model.W(3, 2)})
	g.step("register period beyond MaxPeriod", &command{kind: cmdRegister, name: "e", w: model.W(1, MaxPeriod+1)})

	g.step("submit a key=k1", submitCmd(SubmitJobRequest{Task: "a", Key: "k1"}))
	g.step("submit a key=k1 again: cached", submitCmd(SubmitJobRequest{Task: "a", Key: "k1"}))
	g.step("submit b at=0 earliness=1 key=k2", submitCmd(SubmitJobRequest{Task: "b", At: "0", Earliness: 1, Key: "k2"}))
	g.step("submit unknown task", submitCmd(SubmitJobRequest{Task: "zz"}))
	g.step("submit negative earliness", submitCmd(SubmitJobRequest{Task: "a", Earliness: -1}))

	g.step("coalesced run of four singles",
		submitCmd(SubmitJobRequest{Task: "a", Key: "r1"}),
		submitCmd(SubmitJobRequest{Task: "c"}),
		submitCmd(SubmitJobRequest{Task: "b", Key: "r2"}),
		submitCmd(SubmitJobRequest{Task: "a", At: "0"}))
	g.step("coalesced run: seen key, bad task, key twice, plain",
		submitCmd(SubmitJobRequest{Task: "a", Key: "r1"}),
		submitCmd(SubmitJobRequest{Task: "zz"}),
		submitCmd(SubmitJobRequest{Task: "c", Key: "r3"}),
		submitCmd(SubmitJobRequest{Task: "c", Key: "r3"}),
		submitCmd(SubmitJobRequest{Task: "b"}))

	g.step("batch of three", &command{kind: cmdSubmitBatch, batch: []SubmitJobRequest{
		{Task: "a"}, {Task: "b", Key: "b1"}, {Task: "c", At: "0"},
	}})
	g.step("batch with one bad job", &command{kind: cmdSubmitBatch, batch: []SubmitJobRequest{
		{Task: "a"}, {Task: "zz"},
	}})

	g.step("advance by 3/2", &command{kind: cmdAdvance, by: "3/2"})
	g.step("advance until 1: in the past", &command{kind: cmdAdvance, until: "1"})
	g.step("advance with until and by", &command{kind: cmdAdvance, until: "4", by: "1"})

	g.step("grow to 3", &command{kind: cmdResize, resizeM: 3})
	g.step("shrink to 1: rejected", &command{kind: cmdResize, resizeM: 1})
	g.step("shrink to 1 with drain: queued", &command{kind: cmdResize, resizeM: 1, drain: true})
	g.checkpoint("checkpoint with a shrink queued")
	g.step("register e 1/4 against the queued target", &command{kind: cmdRegister, name: "e", w: model.W(1, 4)})
	g.step("resize to 0", &command{kind: cmdResize, resizeM: 0})
	g.step("unregister a with work pending", &command{kind: cmdUnregister, name: "a"})
	g.step("unregister unknown", &command{kind: cmdUnregister, name: "zz"})

	g.step("drain", &command{kind: cmdDrain})
	g.step("unregister a: Σwt = 3/2 still above the target", &command{kind: cmdUnregister, name: "a"})
	g.step("unregister b: the queued shrink applies", &command{kind: cmdUnregister, name: "b"})
	g.step("submit c on one processor", submitCmd(SubmitJobRequest{Task: "c"}))
	g.step("advance until 20", &command{kind: cmdAdvance, until: "20"})
	g.step("resize to 2 with drain: a grow applies at once", &command{kind: cmdResize, resizeM: 2, drain: true})
	g.step("register a again after its release", &command{kind: cmdRegister, name: "a", w: model.W(3, 4)})

	g.journalDown = errors.New("journal down")
	g.step("journal down: register f", &command{kind: cmdRegister, name: "f", w: model.W(1, 4)})
	g.step("journal down: submit c", submitCmd(SubmitJobRequest{Task: "c", Key: "lost"}))
	g.step("journal down: advance", &command{kind: cmdAdvance, by: "1"})
	g.step("journal down: unregister c", &command{kind: cmdUnregister, name: "c"})
	g.step("journal down: resize", &command{kind: cmdResize, resizeM: 3})
	g.journalDown = nil
	g.step("journal back: submit c key=lost applies", submitCmd(SubmitJobRequest{Task: "c", Key: "lost"}))
	g.step("drain again", &command{kind: cmdDrain})
	g.checkpoint("final checkpoint")

	// Delete, tenant side: the stop command fails whatever is still queued.
	queued := submitCmd(SubmitJobRequest{Task: "c"})
	queued.done = make(chan cmdResult, 1)
	g.tn.ring <- queued
	g.step("stop", &command{kind: cmdStop})
	g.line("queued behind stop", resultView(queued, <-queued.done))
	select {
	case <-g.tn.Closed():
	default:
		t.Error("stop left Closed() open")
	}

	// An in-memory tenant has no journal hooks: same appliers, no records,
	// no wal-append stage.
	mem := newWritePathScript(t, "mem", false)
	mem.step("in-memory: register a 1/2", &command{kind: cmdRegister, name: "a", w: model.W(1, 2)})
	mem.step("in-memory: submit a key=k1", submitCmd(SubmitJobRequest{Task: "a", Key: "k1"}))
	mem.step("in-memory: coalesced run of two",
		submitCmd(SubmitJobRequest{Task: "a"}), submitCmd(SubmitJobRequest{Task: "a", Key: "k1"}))
	mem.step("in-memory: batch of two", &command{kind: cmdSubmitBatch, batch: []SubmitJobRequest{{Task: "a"}, {Task: "a", At: "1"}}})
	mem.step("in-memory: advance by 2", &command{kind: cmdAdvance, by: "2"})
	mem.step("in-memory: shrink to 1 with drain applies at once", &command{kind: cmdResize, resizeM: 1, drain: true})
	mem.step("in-memory: drain", &command{kind: cmdDrain})
	mem.step("in-memory: unregister a", &command{kind: cmdUnregister, name: "a"})

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

// writePathScript drives one not-started tenant core command by command
// and renders what the write path did as text lines.
type writePathScript struct {
	t           *testing.T
	tn          *Tenant
	out         strings.Builder
	lsn         uint64 // journal position the recording hooks hand out
	traced      int64  // trace events already rendered
	journalDown error  // when set, the hooks refuse with it
}

func newWritePathScript(t *testing.T, id string, journaled bool) *writePathScript {
	tn := newWritePathCore(t, id, 2)
	o := newServerObs()
	o.clock = obs.NewFake(time.Unix(1_700_000_000, 0).UTC(), time.Millisecond)
	tn.attachObs(o)
	g := &writePathScript{t: t, tn: tn}
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

func submitCmd(req SubmitJobRequest) *command { return &command{kind: cmdSubmit, submit: req} }

// journal is the recording hook: it assigns the LSN the way wal.Log does
// and returns the record's commit.
func (g *writePathScript) journal(call string, rec wal.Record) (wal.Commit, error) {
	if g.journalDown != nil {
		g.line("journal "+call+" refused", []wal.Record{rec})
		return wal.Commit{}, g.journalDown
	}
	g.lsn++
	rec.LSN = g.lsn
	g.line("journal "+call, []wal.Record{rec})
	return wal.Commit{LSN: g.lsn}, nil
}

// step hands cmds to the loop's appliers the way runLoop would after
// draining them from the ring together — a run of single submits as one
// run, anything else alone — and renders responses, new trace events and
// the published snapshot.
func (g *writePathScript) step(label string, cmds ...*command) {
	g.t.Helper()
	fmt.Fprintf(&g.out, "## %s\n", label)
	for _, c := range cmds {
		c.done = make(chan cmdResult, 1)
	}
	if cmds[0].kind == cmdSubmit {
		g.tn.processSubmitRun(cmds)
	} else if len(cmds) != 1 {
		g.t.Fatalf("%s: only single submits coalesce", label)
	} else {
		g.tn.process(cmds[0])
	}
	for _, c := range cmds {
		select {
		case res := <-c.done:
			g.line("response", resultView(c, res))
		default:
			g.t.Fatalf("%s: command left incomplete", label)
		}
	}
	events, dropped := g.tn.traceRing().Since(g.traced)
	if dropped != 0 {
		g.t.Fatalf("%s: trace ring dropped %d events", label, dropped)
	}
	for _, ev := range events {
		g.line("trace", ev)
	}
	g.traced += int64(len(events))
	g.line("info", g.tn.Info())
}

func (g *writePathScript) checkpoint(label string) {
	fmt.Fprintf(&g.out, "## %s\n", label)
	g.line("exec", g.tn.ex.Checkpoint())
	g.line("idem", g.tn.idemQ)
}

func (g *writePathScript) line(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		g.t.Fatal(err)
	}
	fmt.Fprintf(&g.out, "%s %s\n", kind, b)
}

// resultView renders the part of a cmdResult its command kind fills in.
func resultView(c *command, res cmdResult) any {
	v := struct {
		Submit   *SubmitJobResponse  `json:"submit,omitempty"`
		Batch    *SubmitJobsResponse `json:"batch,omitempty"`
		Advance  *AdvanceResponse    `json:"advance,omitempty"`
		Resize   *ResizeResponse     `json:"resize,omitempty"`
		Admitted *bool               `json:"admitted,omitempty"`
		Reason   string              `json:"reason,omitempty"`
		Commit   uint64              `json:"commit"`
		Err      string              `json:"err,omitempty"`
	}{Commit: res.commit.LSN}
	if res.err != nil {
		v.Err = res.err.Error()
		return v
	}
	switch c.kind {
	case cmdSubmit:
		v.Submit = &res.submit
	case cmdSubmitBatch:
		v.Batch = &res.subs
	case cmdAdvance, cmdDrain:
		v.Advance = &res.adv
	case cmdResize:
		v.Resize = &res.resize
	case cmdRegister:
		v.Admitted, v.Reason = &res.dec.Admitted, res.dec.Reason
	}
	return v
}

// newWritePathCore builds a tenant whose loop is not started, so the
// script's goroutine is the one that owns the loop-owned state.
func newWritePathCore(t *testing.T, id string, m int) *Tenant {
	pol, err := PolicyByName("")
	if err != nil {
		t.Fatal(err)
	}
	return newTenantCore(id, pol.Name(), online.New(m, pol), 0)
}
