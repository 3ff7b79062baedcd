package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/scenario"
	"desyncpfair/internal/server"
)

func writeSpec(t *testing.T, dir string) string {
	t.Helper()
	spec := &scenario.Spec{
		Name: "cli", Seed: 11, M: 2, Horizon: 24,
		Classes: []scenario.ClassSpec{{Name: "gold", MaxTardiness: "0"}},
		Cohorts: []scenario.CohortSpec{{
			Name: "web", Clients: 2, Class: "gold",
			Tasks:   []scenario.TaskSpec{{Name: "a", E: 1, P: 4}},
			Arrival: scenario.ArrivalSpec{Process: scenario.ProcPoisson, Mean: "5"},
		}},
	}
	data, err := scenario.EncodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRecordReplayCounterfactual(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	trace := filepath.Join(dir, "run.trace")
	metrics := filepath.Join(dir, "metrics.prom")

	var out bytes.Buffer
	err := run(config{spec: spec, record: trace, metricsOut: metrics, counterfactual: "EPDF,PF"}, &out)
	if err != nil {
		t.Fatalf("record run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"scenario    cli", "jain index", "class gold", "counterfactual EPDF", "counterfactual PF"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	mdata, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdata), "scenario_tardiness_quanta_bucket") {
		t.Fatalf("metrics file lacks the tardiness histogram:\n%s", mdata)
	}

	// Record again: the trace must be byte-identical run to run.
	trace2 := filepath.Join(dir, "run2.trace")
	var out2 bytes.Buffer
	if err := run(config{spec: spec, record: trace2}, &out2); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(trace2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-recorded trace differs: %d vs %d bytes", len(a), len(b))
	}

	// Replay the recording; it must verify and reproduce the report.
	var rout bytes.Buffer
	if err := run(config{replay: trace}, &rout); err != nil {
		t.Fatalf("replay: %v\n%s", err, rout.String())
	}
	if !strings.Contains(rout.String(), "verified: dispatch sequence identical") {
		t.Fatalf("replay did not report verification:\n%s", rout.String())
	}

	// A different -seed must change the trace (the flag overrides the spec).
	trace3 := filepath.Join(dir, "run3.trace")
	var out3 bytes.Buffer
	if err := run(config{spec: spec, seed: 99, seedSet: true, record: trace3}, &out3); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(trace3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("-seed override produced an identical trace")
	}
}

func TestRunSweepM(t *testing.T) {
	dir := t.TempDir()
	spec := writeSpec(t, dir)
	trace := filepath.Join(dir, "run.trace")

	var out bytes.Buffer
	if err := run(config{spec: spec, record: trace}, &out); err != nil {
		t.Fatalf("record run: %v\n%s", err, out.String())
	}

	// Sweep the recorded trace over 1:3 under two policies. The spec's
	// heaviest client has Σwt = 1/4, so every swept M is feasible and
	// both sweeps must report M=1 as the minimal feasible capacity.
	var sout bytes.Buffer
	if err := run(config{replay: trace, sweepM: "1:3", counterfactual: "EPDF,PD2"}, &sout); err != nil {
		t.Fatalf("sweep run: %v\n%s", err, sout.String())
	}
	for _, want := range []string{
		"sweep-m EPDF",
		"sweep-m PD2",
		"minimal feasible M=1",
		"M=3",
	} {
		if !strings.Contains(sout.String(), want) {
			t.Fatalf("sweep output missing %q:\n%s", want, sout.String())
		}
	}
	// With -sweep-m the counterfactual list feeds the sweep, not the
	// decision diff — the diff output must not appear.
	if strings.Contains(sout.String(), "counterfactual EPDF") {
		t.Fatalf("sweep run also printed counterfactual diffs:\n%s", sout.String())
	}

	// Bad ranges are errors, not silent no-ops.
	var eout bytes.Buffer
	if err := run(config{replay: trace, sweepM: "3:1"}, &eout); err == nil {
		t.Fatal("inverted sweep range accepted")
	}
	if err := run(config{replay: trace, sweepM: "x"}, &eout); err == nil {
		t.Fatal("non-numeric sweep range accepted")
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(config{}, &out); err == nil {
		t.Fatal("no -spec/-replay accepted")
	}
	if err := run(config{spec: "a", replay: "b"}, &out); err == nil {
		t.Fatal("-spec with -replay accepted")
	}
	if err := run(config{spec: filepath.Join(t.TempDir(), "missing.json")}, &out); err == nil {
		t.Fatal("missing spec file accepted")
	}
	// A bad policy name or sweep range fails before anything runs: nothing
	// is printed, and with -addr the live pfaird is left without a tenant.
	spec := writeSpec(t, t.TempDir())
	for _, cfg := range []config{
		{spec: spec, counterfactual: "NOPE"},
		{spec: spec, counterfactual: "NOPE", sweepM: "1:2"},
		{spec: spec, counterfactual: "EPDF,NOPE", sweepM: "1:2"},
		{spec: spec, sweepM: "4:1"},
	} {
		out.Reset()
		err := run(cfg, &out)
		if err == nil || out.Len() > 0 {
			t.Fatalf("-counterfactual %q -sweep-m %q: err = %v, output %q; want an error and nothing run", cfg.counterfactual, cfg.sweepM, err, out.String())
		}
		if cfg.counterfactual != "" && !strings.Contains(err.Error(), `unknown policy "NOPE"`) {
			t.Fatalf("-counterfactual %q: err = %v, want the unknown policy named", cfg.counterfactual, err)
		}
	}
	srv := server.New()
	defer srv.Shutdown()
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	if err := run(config{spec: spec, addr: hs.URL, counterfactual: "NOPE"}, &out); err == nil || out.Len() > 0 {
		t.Fatalf("-addr -counterfactual NOPE: err = %v, output %q", err, out.String())
	}
	ts, err := client.New(hs.URL, nil).Tenants(context.Background())
	if err != nil || len(ts) != 0 {
		t.Fatalf("-addr -counterfactual NOPE left %d tenants on the live pfaird (err %v)", len(ts), err)
	}
}

// TestRunAgainstLivePfaird: -addr drives the spec through a live pfaird —
// one served in process here — and reports exactly what the in-process
// executive reports for the same spec and seed, while another -seed
// reshapes the workload and so the report.
func TestRunAgainstLivePfaird(t *testing.T) {
	spec := writeSpec(t, t.TempDir())
	live := func(seed int64) string {
		srv := server.New()
		defer srv.Shutdown()
		hs := hoptest.NewServer(srv.Handler())
		defer hs.Close()
		var out bytes.Buffer
		if err := run(config{spec: spec, addr: hs.URL, seed: seed, seedSet: true}, &out); err != nil {
			t.Fatalf("-addr run at seed %d: %v\n%s", seed, err, out.String())
		}
		return out.String()
	}
	var local bytes.Buffer
	if err := run(config{spec: spec, seed: 5, seedSet: true}, &local); err != nil {
		t.Fatalf("in-process run: %v\n%s", err, local.String())
	}
	got := live(5)
	if !strings.Contains(got, "class gold") {
		t.Fatalf("-addr report lacks its class:\n%s", got)
	}
	if got != local.String() {
		t.Fatalf("-addr and in-process reports differ for one spec and seed:\n%s\n---\n%s", got, local.String())
	}
	if live(6) == got {
		t.Fatal("-seed 6 reported what -seed 5 did")
	}
}
