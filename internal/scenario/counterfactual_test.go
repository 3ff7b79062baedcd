package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"desyncpfair/internal/oracle"
	"desyncpfair/internal/rat"
)

// oracleSpec builds a tiny scenario for one seed, varied across processor
// counts, client counts, task mixes, arrival processes, bursts and phases
// — small enough that the exhaustive oracle can usually check the
// generated GIS systems.
func oracleSpec(seed int64) *Spec {
	u := uint64(seed)
	m := 1 + int(u%2)
	procs := []string{ProcPoisson, ProcPeriodic, ProcGamma, ProcWeibull}
	co := CohortSpec{
		Name:    "c",
		Clients: 1 + int(u/2%2),
		Tasks:   []TaskSpec{{Name: "a", E: 1, P: 2 + int64(u%3)}},
		Arrival: ArrivalSpec{Process: procs[u%4], Mean: fmt.Sprint(3 + u%3), Shape: 0.5 + float64(u%5)/2},
	}
	if m == 2 {
		co.Tasks = append(co.Tasks, TaskSpec{Name: "b", E: 1, P: 3 + int64(u%2)})
	}
	if u%5 == 0 {
		co.Burst = &BurstSpec{On: "3", Off: "2"}
	}
	if u%7 == 0 {
		co.Phases = []PhaseSpec{{Duration: "3", Rate: 2}, {Duration: "3", Rate: 0.5}}
	}
	return &Spec{
		Name: fmt.Sprintf("oracle-%d", seed), Seed: seed, M: m,
		Horizon: 6 + seed%4,
		Cohorts: []CohortSpec{co},
	}
}

// TestCounterfactualMatchesOracle is the end-to-end verification sweep
// demanded by the scenario engine's contract, over ≥100 seeded systems:
//
//  1. replaying a recorded trace reproduces the exact dispatch sequence;
//  2. a counterfactual under the recorded policy makes identical
//     decisions (zero differing quanta);
//  3. PD² and EPDF counterfactuals both satisfy Theorem 3's bound
//     (tardiness ≤ 1 quantum; EPDF is optimal here because m ≤ 2);
//  4. the exhaustive oracle confirms each generated GIS system is
//     feasible — the workloads being replayed are real instances of the
//     paper's model, not degenerate ones.
func TestCounterfactualMatchesOracle(t *testing.T) {
	const seeds = 120
	oracleChecked, withDispatches := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		spec := oracleSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: bad test spec: %v", seed, err)
		}
		w, err := Generate(spec)
		if err != nil {
			t.Fatalf("seed %d: generate: %v", seed, err)
		}
		tgt := NewExecTarget()
		res, err := Run(w, tgt)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		if res.Report.Dispatches > 0 {
			withDispatches++
		}

		// (1) Replay must reproduce the recorded dispatch sequence exactly.
		if _, err := Replay(res.Records); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// (2) Same policy ⇒ same decisions, quantum by quantum.
		same, err := Rerun(res.Records, "PD2")
		if err != nil {
			t.Fatalf("seed %d: rerun PD2: %v", seed, err)
		}
		if len(same.Diffs) != 0 {
			t.Fatalf("seed %d: PD2 counterfactual of a PD2 recording differs in %d quanta: %+v",
				seed, len(same.Diffs), same.Diffs[0])
		}

		// (3) Theorem 3 must hold for both PD² and EPDF (m ≤ 2).
		for _, policy := range []string{"PD2", "EPDF"} {
			cf, err := Rerun(res.Records, policy)
			if err != nil {
				t.Fatalf("seed %d: rerun %s: %v", seed, policy, err)
			}
			if rat.One.Less(cf.Result.Report.MaxTardiness) {
				t.Fatalf("seed %d: %s counterfactual has max tardiness %s > 1 quantum (Theorem 3)",
					seed, policy, cf.Result.Report.MaxTardiness)
			}
		}

		// (4) The generated GIS systems are oracle-feasible.
		for id, ex := range tgt.Execs {
			sys := ex.System()
			n := sys.NumSubtasks()
			if n == 0 || n > oracle.MaxSubtasks {
				continue
			}
			ok, err := oracle.Exists(sys, spec.M)
			if err != nil {
				t.Fatalf("seed %d client %s: oracle: %v", seed, id, err)
			}
			if !ok {
				t.Fatalf("seed %d client %s: oracle found no schedule for a feasible system", seed, id)
			}
			oracleChecked++
		}
	}
	// The sweep must actually exercise its subjects, not vacuously pass.
	if withDispatches < seeds*3/4 {
		t.Fatalf("only %d/%d seeds produced dispatches", withDispatches, seeds)
	}
	if oracleChecked < 75 {
		t.Fatalf("only %d oracle-checked systems, want ≥ 75 — shrink the specs", oracleChecked)
	}
}

// TestPolicyNamesResolveLikeTheService: Rerun and SweepM read a policy
// name as the service does — "" is PD², and so is its alias "pd2" — so on
// the recorded smoke trace the three names give the same counterfactual
// and the same sweep, each under the canonical name, and an unknown name
// fails before any trace is read or any workload runs.
func TestPolicyNamesResolveLikeTheService(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "smoke.trace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	var first *Counterfactual
	var firstTrace []byte
	var firstSweep *Sweep
	for _, name := range []string{"", "PD2", "pd2"} {
		cf, err := Rerun(recs, name)
		if err != nil {
			t.Fatalf("Rerun(%q): %v", name, err)
		}
		sw, err := SweepM(recs, name, 1, 4)
		if err != nil {
			t.Fatalf("SweepM(%q): %v", name, err)
		}
		if cf.Policy != "PD2" || cf.Result.Report.Policy != "PD2" || sw.Policy != "PD2" {
			t.Fatalf("%q: counterfactual %q, its report %q, sweep %q; want PD2 for each",
				name, cf.Policy, cf.Result.Report.Policy, sw.Policy)
		}
		trace, err := EncodeTrace(cf.Result.Records)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first, firstTrace, firstSweep = cf, trace, sw
			continue
		}
		if !reflect.DeepEqual(cf.Diffs, first.Diffs) || !reflect.DeepEqual(cf.Result.Report, first.Result.Report) {
			t.Fatalf("Rerun(%q) differs from Rerun(\"\"): diffs %+v vs %+v", name, cf.Diffs, first.Diffs)
		}
		if !bytes.Equal(trace, firstTrace) {
			t.Fatalf("Rerun(%q) traced other bytes than Rerun(\"\")", name)
		}
		if !reflect.DeepEqual(sw, firstSweep) {
			t.Fatalf("SweepM(%q) = %+v, SweepM(\"\") = %+v", name, sw, firstSweep)
		}
	}
	if len(first.Diffs) != 0 {
		t.Fatalf("a PD² rerun of a PD² recording differs in %d quanta", len(first.Diffs))
	}

	// An unknown name is refused before the trace is read: with no records
	// at all the error still names the policy, not the empty trace.
	for _, rs := range [][]Record{recs, nil} {
		_, rerr := Rerun(rs, "NOPE")
		_, serr := SweepM(rs, "NOPE", 1, 4)
		for _, err := range []error{rerr, serr} {
			if err == nil || !strings.Contains(err.Error(), `unknown policy "NOPE"`) {
				t.Fatalf("%d records: err = %v, want the unknown policy named", len(rs), err)
			}
		}
	}
}
