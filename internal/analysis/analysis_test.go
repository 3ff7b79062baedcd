package analysis

import (
	"math/rand"
	"strings"
	"testing"

	"desyncpfair/internal/core"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sfq"
)

func fig2System(h int64) *model.System {
	return model.Periodic([]model.Weight{
		model.W(1, 6), model.W(1, 6), model.W(1, 6),
		model.W(1, 2), model.W(1, 2), model.W(1, 2),
	}, h)
}

func TestIdealLagOfPD2Schedule(t *testing.T) {
	sys := fig2System(6)
	s, err := sfq.Run(sys, sfq.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	// PD² SFQ schedules of periodic systems are Pfair: |lag| < 1 always.
	if err := CheckPfairness(s); err != nil {
		t.Fatal(err)
	}
	// Task D (wt 1/2) after 2 slots has exactly 1 quantum: lag = 0.
	d := sys.Tasks[3]
	if got := IdealLag(s, d, 2); got.Sign() != 0 {
		t.Errorf("lag(D, 2) = %s, want 0", got)
	}
}

func TestPfairnessAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(6))
		n := m + 1 + rng.Intn(2*m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := model.Periodic(ws, 2*q)
		s, err := sfq.Run(sys, sfq.Options{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckPfairness(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestCheckPfairnessRejectsNonPeriodic(t *testing.T) {
	sys := model.NewSystem()
	tk := sys.AddTask("T", model.W(1, 2))
	sys.AddSubtask(tk, 1, 0, 0)
	sys.AddSubtask(tk, 3, 1, 5) // GIS omission
	s, err := sfq.Run(sys, sfq.Options{M: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckPfairness(s); err == nil {
		t.Error("GIS system accepted by periodic-only Pfairness check")
	}
}

func TestQuantumResidue(t *testing.T) {
	sys := fig2System(6)
	// Every subtask yields at half a quantum: residue = 12 × 1/2 = 6.
	s, err := sfq.Run(sys, sfq.Options{M: 2, Yield: func(*model.Subtask) rat.Rat { return rat.New(1, 2) }})
	if err != nil {
		t.Fatal(err)
	}
	if got := QuantumResidue(s); !got.Equal(rat.FromInt(6)) {
		t.Errorf("residue = %s, want 6", got)
	}
	full, err := sfq.Run(sys, sfq.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := QuantumResidue(full); got.Sign() != 0 {
		t.Errorf("full-cost residue = %s, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	sys := fig2System(6)
	y := gen.AdversarialYield(rat.New(1, 4), func(s *model.Subtask) bool {
		return (s.Task.Name == "A" || s.Task.Name == "F") && s.Index == 1
	})
	dq, err := core.RunDVQ(sys, core.DVQOptions{M: 2, Yield: y})
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(dq)
	if sum.Subtasks != 12 {
		t.Errorf("subtasks = %d", sum.Subtasks)
	}
	if sum.Misses != 1 { // F_2
		t.Errorf("misses = %d, want 1", sum.Misses)
	}
	if got := sum.MissRate(); got <= 0 || got > 1 {
		t.Errorf("miss rate = %f", got)
	}
	if !sum.MaxTardiness.Equal(rat.New(3, 4)) {
		t.Errorf("max tardiness = %s, want 3/4", sum.MaxTardiness)
	}
	if sum.MeanResponse <= 0 {
		t.Error("mean response should be positive")
	}
	if sum.BusyFraction <= 0 || sum.BusyFraction > 1 {
		t.Errorf("busy fraction = %f", sum.BusyFraction)
	}
}

func TestMissRateEmpty(t *testing.T) {
	var s Summary
	if s.MissRate() != 0 {
		t.Error("empty summary miss rate should be 0")
	}
}

func TestMigrations(t *testing.T) {
	sys := fig2System(6)
	s, err := sfq.Run(sys, sfq.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Task affinity keeps migrations low but the count must be well-defined
	// and bounded by (#subtasks − #tasks).
	m := Migrations(s)
	if m < 0 || m > sys.NumSubtasks()-len(sys.Tasks) {
		t.Errorf("migrations = %d out of range", m)
	}
}

func TestLagSeriesAndCSV(t *testing.T) {
	sys := fig2System(6)
	s, err := sfq.Run(sys, sfq.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	series := LagSeries(s, sys.Tasks[3]) // task D, weight 1/2
	if len(series) != 7 {                // t = 0..6
		t.Fatalf("series length %d", len(series))
	}
	if series[0].Lag.Sign() != 0 {
		t.Error("lag at 0 should be 0")
	}
	for _, p := range series {
		if !p.Lag.Less(rat.One) || !p.Lag.Neg().Less(rat.One) {
			t.Errorf("lag(%d) = %s outside (−1,1)", p.T, p.Lag)
		}
	}
	var b strings.Builder
	if err := WriteLagCSV(&b, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(sys.Tasks)*7 {
		t.Errorf("csv rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "task,time,lag") {
		t.Errorf("header %q", lines[0])
	}
}

func TestTardinessHistogram(t *testing.T) {
	sys := fig2System(6)
	y := func(s *model.Subtask) rat.Rat {
		if (s.Task.Name == "A" || s.Task.Name == "F") && s.Index == 1 {
			return rat.New(3, 4)
		}
		return rat.One
	}
	dq, err := core.RunDVQ(sys, core.DVQOptions{M: 2, Yield: y})
	if err != nil {
		t.Fatal(err)
	}
	h := TardinessHistogram(dq)
	if h.Total != 12 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Buckets[0] != 11 {
		t.Errorf("on-time = %d, want 11", h.Buckets[0])
	}
	// F_2's tardiness is 3/4 ∈ (5/8, 6/8] → bucket 5.
	if h.Buckets[5] != 1 {
		t.Errorf("bucket 5 = %d, want 1 (histogram %s)", h.Buckets[5], h)
	}
	var merged Histogram
	merged.Merge(h)
	merged.Merge(h)
	if merged.Total != 24 || merged.Buckets[5] != 2 {
		t.Errorf("merge wrong: %s", merged)
	}
	if h.String() == "" {
		t.Error("empty histogram string")
	}
}

// For synchronous periodic systems the per-subtask fluid schedule must
// reduce exactly to wt·t, i.e. ISLag == IdealLag everywhere.
func TestFluidReducesToPeriodicIdeal(t *testing.T) {
	sys := fig2System(6)
	s, err := sfq.Run(sys, sfq.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range sys.Tasks {
		for tt := int64(0); tt <= 6; tt++ {
			if got, want := ISLag(s, task, tt), IdealLag(s, task, tt); !got.Equal(want) {
				t.Fatalf("ISLag(%s,%d)=%s but IdealLag=%s", task, tt, got, want)
			}
		}
	}
	if err := CheckISPfairness(s); err != nil {
		t.Fatal(err)
	}
}

func TestFluidAllocationPartials(t *testing.T) {
	// wt 3/4, T_1: fluid interval [0, 4/3): slot 0 gets 3/4·1 = 3/4 of a
	// quantum... rate w over [0,1) = 3/4; slot 1 gets (4/3−1)·3/4 = 1/4.
	sub := &model.Subtask{Task: &model.Task{W: model.W(3, 4)}, Index: 1}
	if got := FluidAllocation(sub, 0); !got.Equal(rat.New(3, 4)) {
		t.Errorf("slot 0 = %s", got)
	}
	if got := FluidAllocation(sub, 1); !got.Equal(rat.New(1, 4)) {
		t.Errorf("slot 1 = %s", got)
	}
	if got := FluidAllocation(sub, 2); got.Sign() != 0 {
		t.Errorf("slot 2 = %s", got)
	}
	// A full fluid interval sums to exactly one quantum.
	total := rat.Zero
	for u := int64(0); u < 4; u++ {
		total = total.Add(FluidAllocation(sub, u))
	}
	if !total.Equal(rat.One) {
		t.Errorf("total = %s", total)
	}
}

// Generalized Pfairness holds for PD² on random IS/GIS systems (no early
// release): every task's fluid lag stays in (−1, 1).
func TestISPfairnessAtScale(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(6))
		n := m + 1 + rng.Intn(2*m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := gen.System(rng, ws, gen.SystemOptions{
			Horizon:    3 * q,
			JitterProb: 25,
			MaxJitter:  2,
			OmitProb:   15,
		})
		s, err := sfq.Run(sys, sfq.Options{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ValidatePfair(); err != nil {
			t.Fatal(err)
		}
		if err := CheckISPfairness(s); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestJobsAndJobTardiness(t *testing.T) {
	sys := fig2System(12) // two full periods for the 1/2-weight tasks
	y := gen.AdversarialYield(rat.New(1, 4), func(s *model.Subtask) bool {
		return (s.Task.Name == "A" || s.Task.Name == "F") && s.Index == 1
	})
	dq, err := core.RunDVQ(sys, core.DVQOptions{M: 2, Yield: y})
	if err != nil {
		t.Fatal(err)
	}
	jobs := Jobs(dq)
	// A,B,C (wt 1/6): 2 jobs each over horizon 12; D,E,F (wt 1/2): 6 each.
	if len(jobs) != 3*2+3*6 {
		t.Fatalf("jobs = %d, want 24", len(jobs))
	}
	// Subtask F_2's tardiness (3/4) is inside job 2 of F (deadline 4).
	found := false
	for _, j := range jobs {
		if j.Task.Name == "F" && j.Job == 2 {
			found = true
			if !j.Tardiness.Equal(rat.New(3, 4)) {
				t.Errorf("job tardiness = %s, want 3/4", j.Tardiness)
			}
		}
		if j.Deadline != j.Job*j.Task.W.P {
			t.Errorf("%s job %d deadline %d", j.Task, j.Job, j.Deadline)
		}
	}
	if !found {
		t.Fatal("F's job 2 missing")
	}
	if got := MaxJobTardiness(dq); !got.Equal(rat.New(3, 4)) {
		t.Errorf("max job tardiness = %s", got)
	}
}

// Job tardiness never exceeds subtask tardiness bounds: jobs inherit the
// one-quantum guarantee (the job deadline is its last subtask's deadline).
func TestJobTardinessInheritsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(2)
		q := int64(6 + rng.Intn(6))
		n := m + 1 + rng.Intn(m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := model.Periodic(ws, 2*q)
		dq, err := core.RunDVQ(sys, core.DVQOptions{M: m, Yield: gen.UniformYield(int64(trial), 8)})
		if err != nil {
			t.Fatal(err)
		}
		if got := MaxJobTardiness(dq); rat.One.Less(got) {
			t.Fatalf("trial %d: job tardiness %s > 1", trial, got)
		}
	}
}
