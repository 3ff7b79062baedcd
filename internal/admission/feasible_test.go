package admission_test

import (
	"fmt"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/quantize"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/scenario"
)

// TestFeasibleBoundaryEveryCaller walks the feasibility boundary through
// every caller of model.Feasible: m unit-weight tasks put Σwt at exactly M
// (feasible — the condition is an iff, so the boundary itself must pass),
// and one more task of weight 1/q puts it at M + 1/q (infeasible, however
// small 1/q is). Each caller must draw the line in the same place.
func TestFeasibleBoundaryEveryCaller(t *testing.T) {
	for _, m := range []int{1, 2, 3, 8} {
		for _, q := range []int64{2, 3, 7, scenario.MaxHorizon} {
			t.Run(fmt.Sprintf("M=%d_q=%d", m, q), func(t *testing.T) {
				boundary(t, m, q)
			})
		}
	}
}

func boundary(t *testing.T, m int, q int64) {
	over := model.W(1, q) // the task that tips Σwt = M over to M + 1/q
	atM := make([]model.Weight, m)
	for i := range atM {
		atM[i] = model.W(1, 1)
	}
	overM := append(append([]model.Weight{}, atM...), over)
	name := func(i int) string { return fmt.Sprintf("t%d", i) }

	// The predicate itself, and System.Feasible.
	exact := rat.FromInt(int64(m))
	if !model.Feasible(exact, m) || model.Feasible(exact.Add(over.Rat()), m) {
		t.Error("model.Feasible: boundary misplaced")
	}
	sys := model.NewSystem()
	for i, w := range atM {
		sys.AddTask(name(i), w)
	}
	if !sys.Feasible(m) {
		t.Error("System.Feasible rejects Σwt = M")
	}
	sys.AddTask("over", over)
	if sys.Feasible(m) {
		t.Error("System.Feasible accepts Σwt = M + 1/q")
	}

	// The analytical tests.
	for _, test := range []func([]model.Weight, int) admission.Decision{admission.PfairSFQ, admission.PfairDVQ, admission.EPDF} {
		at, above := test(atM, m), test(overM, m)
		if !at.Admitted || above.Admitted {
			t.Errorf("%s: Σwt = M admitted %v, Σwt = M + 1/q admitted %v", at.Scheduler, at.Admitted, above.Admitted)
		}
	}

	// The ledger: registration, shrink, and a queued shrink applying at the
	// release that brings Σwt to exactly its target.
	c := admission.NewController(m)
	for i, w := range atM {
		if d, err := c.Register(name(i), w); err != nil || !d.Admitted {
			t.Fatalf("Controller.Register up to Σwt = M: %v %+v", err, d)
		}
	}
	if d, err := c.Register("over", over); err != nil || d.Admitted {
		t.Errorf("Controller.Register at M + 1/q: %v %+v", err, d)
	}
	if d, err := c.Resize(m+1, false); err != nil || d.Outcome != admission.ResizeApplied {
		t.Fatalf("Controller.Resize grow: %v %+v", err, d)
	}
	if d, err := c.Register("over", over); err != nil || !d.Admitted {
		t.Fatalf("Controller.Register after the grow: %v %+v", err, d)
	}
	if d, err := c.Resize(m, false); err != nil || d.Outcome != admission.ResizeRejected {
		t.Errorf("Controller.Resize to M under Σwt = M + 1/q: %v %+v", err, d)
	}
	if d, err := c.Resize(m, true); err != nil || d.Outcome != admission.ResizeQueued {
		t.Errorf("Controller.Resize drain to M under Σwt = M + 1/q: %v %+v", err, d)
	}
	if err := c.Unregister("over"); err != nil || c.M() != m || c.PendingM() != 0 {
		t.Errorf("Controller.Unregister down to Σwt = M: err %v, m = %d, pending = %d; the queued shrink must apply", err, c.M(), c.PendingM())
	}

	// The executive, which owns such a ledger: Register, Resize, Restore.
	ex := online.New(m, nil)
	for i, w := range atM {
		if _, err := ex.Register(name(i), w); err != nil {
			t.Fatalf("Executive.Register up to Σwt = M: %v", err)
		}
	}
	if _, err := ex.Register("over", over); err == nil {
		t.Error("Executive.Register accepts Σwt = M + 1/q")
	}
	if err := ex.Resize(m + 1); err != nil {
		t.Fatal(err)
	}
	if err := ex.Resize(m); err != nil {
		t.Errorf("Executive.Resize to M at Σwt = M: %v", err)
	}
	cp := ex.Checkpoint()
	if _, err := online.Restore(cp); err != nil {
		t.Errorf("Restore at Σwt = M: %v", err)
	}
	cp.Tasks = append(cp.Tasks, online.TaskCheckpoint{Name: "over", E: 1, P: q, Active: true, LastFin: "0", NextIdx: 1})
	if _, err := online.Restore(cp); err == nil {
		t.Error("Restore accepts a checkpoint with Σwt = M + 1/q")
	}

	// Scenario validation and the M sweep.
	spec := func(M int, ws []model.Weight) *scenario.Spec {
		tasks := make([]scenario.TaskSpec, len(ws))
		for i, w := range ws {
			tasks[i] = scenario.TaskSpec{Name: name(i), E: w.E, P: w.P}
		}
		return &scenario.Spec{
			Name: "boundary", Seed: 1, M: M, Horizon: 4,
			Cohorts: []scenario.CohortSpec{{
				Name: "c", Clients: 1, Tasks: tasks,
				Arrival: scenario.ArrivalSpec{Process: scenario.ProcPeriodic},
			}},
		}
	}
	if err := spec(m, atM).Validate(); err != nil {
		t.Errorf("Spec.Validate at Σwt = M: %v", err)
	}
	if err := spec(m, overM).Validate(); err == nil {
		t.Error("Spec.Validate accepts Σwt = M + 1/q")
	}
	for _, tc := range []struct {
		ws           []model.Weight
		minFeasibleM int
	}{{atM, m}, {overM, m + 1}} {
		w, err := scenario.Generate(spec(m+1, tc.ws))
		if err != nil {
			t.Fatal(err)
		}
		res, err := scenario.Run(w, scenario.NewExecTarget())
		if err != nil {
			t.Fatal(err)
		}
		sw, err := scenario.SweepM(res.Records, "PD2", m, m+1)
		if err != nil {
			t.Fatal(err)
		}
		if sw.MinFeasibleM != tc.minFeasibleM {
			t.Errorf("SweepM over %d tasks: MinFeasibleM = %d, want %d", len(tc.ws), sw.MinFeasibleM, tc.minFeasibleM)
		}
	}

	// The quantum-size curve (Q = 1 keeps the weights as they are).
	rts := make([]quantize.RealTask, len(overM))
	for i, w := range overM {
		rts[i] = quantize.RealTask{Name: name(i), C: w.E, T: w.P}
	}
	if pt := quantize.Curve(rts[:m], m, 0, []int64{1})[0]; !pt.Feasible {
		t.Error("quantize.Curve rejects Σwt = M")
	}
	if pt := quantize.Curve(rts, m, 0, []int64{1})[0]; pt.Feasible {
		t.Error("quantize.Curve accepts Σwt = M + 1/q")
	}
}
