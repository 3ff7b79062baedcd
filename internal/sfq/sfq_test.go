package sfq

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// fig2System is the running example of Fig. 2: tasks A, B, C of weight 1/6
// and D, E, F of weight 1/2, total utilization 2, on two processors.
func fig2System(horizon int64) *model.System {
	return model.Periodic([]model.Weight{
		model.W(1, 6), model.W(1, 6), model.W(1, 6),
		model.W(1, 2), model.W(1, 2), model.W(1, 2),
	}, horizon)
}

func TestFig2aSFQScheduleIsPfairValid(t *testing.T) {
	sys := fig2System(6)
	s, err := Run(sys, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidatePfair(); err != nil {
		t.Fatalf("PD² SFQ schedule not Pfair-valid: %v", err)
	}
	if got := s.MaxTardiness(); got.Sign() != 0 {
		t.Errorf("max tardiness = %s, want 0", got)
	}
	// Utilization is exactly 2: no slot may idle before the horizon.
	for slot := int64(0); slot < 6; slot++ {
		if got := len(s.InSlot(slot)); got != 2 {
			t.Errorf("slot %d has %d assignments, want 2", slot, got)
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	sys := fig2System(6)
	if _, err := Run(sys, Options{M: 0}); err == nil {
		t.Error("M = 0 accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	sys := fig2System(6)
	s, err := Run(sys, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Algo != "PD2" || s.Model != "SFQ" {
		t.Errorf("labels = %s/%s", s.Algo, s.Model)
	}
}

// The load-bearing anchor: PD² is optimal under SFQ, so every feasible
// system must be scheduled with zero misses. This exercises the window
// formulas, the b-bit, the group deadline and the engine together.
func TestPD2OptimalOnRandomPeriodicSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(3) // 2..4 processors
		n := m + 1 + rng.Intn(3*m)
		q := int64(6 + rng.Intn(10))
		class := gen.WeightClass(rng.Intn(3))
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, class)
		sys := gen.System(rng, ws, gen.SystemOptions{Horizon: 3 * q})
		s, err := Run(sys, Options{M: m})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.ValidatePfair(); err != nil {
			t.Fatalf("trial %d (M=%d, q=%d, class=%v): PD² missed a deadline: %v", trial, m, q, class, err)
		}
	}
}

func TestPD2OptimalOnRandomISAndGISSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(3)
		n := m + 1 + rng.Intn(2*m)
		q := int64(6 + rng.Intn(8))
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := gen.System(rng, ws, gen.SystemOptions{
			Horizon:    4 * q,
			JitterProb: 25,
			MaxJitter:  3,
			OmitProb:   15,
		})
		if err := sys.Validate(); err != nil {
			t.Fatal(err)
		}
		s, err := Run(sys, Options{M: m})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.ValidatePfair(); err != nil {
			t.Fatalf("trial %d: PD² missed on IS/GIS system: %v", trial, err)
		}
	}
}

// PF and PD are likewise optimal; EPDF is not (no assertion for it).
func TestPFAndPDOptimalOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, pol := range []prio.Policy{prio.PF{}, prio.PD{}} {
		for trial := 0; trial < 25; trial++ {
			m := 2 + rng.Intn(2)
			q := int64(6 + rng.Intn(6))
			n := m + 1 + rng.Intn(2*m)
			if int64(n) > int64(m)*q {
				continue
			}
			ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
			sys := gen.System(rng, ws, gen.SystemOptions{Horizon: 3 * q})
			s, err := Run(sys, Options{M: m, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ValidatePfair(); err != nil {
				t.Fatalf("%s trial %d: missed deadline: %v", pol.Name(), trial, err)
			}
		}
	}
}

// EPDF on two processors is optimal (Anderson & Srinivasan); our engine
// should reproduce that, and it anchors the E8 experiment.
func TestEPDFOnTwoProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		q := int64(6 + rng.Intn(6))
		n := 3 + rng.Intn(4)
		if int64(n) > 2*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, 2*q, gen.MixedWeights)
		sys := gen.System(rng, ws, gen.SystemOptions{Horizon: 3 * q})
		s, err := Run(sys, Options{M: 2, Policy: prio.EPDF{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ValidatePfair(); err != nil {
			t.Fatalf("trial %d: EPDF missed on M=2: %v", trial, err)
		}
	}
}

func TestEarlyYieldWastesQuantumResidue(t *testing.T) {
	sys := fig2System(6)
	half := rat.New(1, 2)
	s, err := Run(sys, Options{M: 2, Yield: sched.ConstCost(half)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateSFQ(); err != nil {
		t.Fatal(err)
	}
	// Every subtask still occupies a full slot: starts integral and one
	// subtask per processor per slot. Busy time is half the allocation.
	if got, want := s.BusyTime(), rat.FromInt(6); !got.Equal(want) {
		t.Errorf("busy = %s, want %s", got, want)
	}
	// Idle time = M·makespan − busy. Makespan here is 5.5 (last subtask
	// starts at 5 and runs 1/2), so idle = 11 − 6 = 5.
	if got, want := s.IdleTime(), rat.FromInt(5); !got.Equal(want) {
		t.Errorf("idle = %s, want %s", got, want)
	}
}

func TestStaggeredOffsetsStarts(t *testing.T) {
	sys := fig2System(6)
	s, err := Run(sys, Options{M: 2, Staggered: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Model != "SFQ-staggered" {
		t.Errorf("model label = %s", s.Model)
	}
	if err := s.ValidateDVQ(); err != nil {
		t.Fatalf("staggered schedule structurally invalid: %v", err)
	}
	sawOffset := false
	for _, a := range s.Assignments() {
		off := a.Start.Sub(rat.FromInt(a.Start.Floor()))
		want := rat.New(int64(a.Proc), 2)
		if !off.Equal(want) {
			t.Errorf("%s on proc %d starts at %s (offset %s, want %s)", a.Sub, a.Proc, a.Start, off, want)
		}
		if off.Sign() > 0 {
			sawOffset = true
		}
	}
	if !sawOffset {
		t.Error("no staggered starts observed")
	}
}

func TestStaggeredBoundedTardiness(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		q := int64(6 + rng.Intn(6))
		m := 2 + rng.Intn(2)
		n := m + 1 + rng.Intn(m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := gen.System(rng, ws, gen.SystemOptions{Horizon: 2 * q})
		s, err := Run(sys, Options{M: m, Staggered: true})
		if err != nil {
			t.Fatal(err)
		}
		// Staggering delays a completion by at most the largest offset,
		// (M−1)/M < 1, beyond the Pfair deadline.
		if got := s.MaxTardiness(); rat.One.Less(got) {
			t.Fatalf("trial %d: staggered tardiness %s > 1", trial, got)
		}
	}
}

func TestDecisionOrderIsRankOrder(t *testing.T) {
	sys := fig2System(6)
	s, err := Run(sys, Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	ranks := s.Ranks()
	if len(ranks) != sys.NumSubtasks() {
		t.Fatalf("rank count %d", len(ranks))
	}
	// Ranks must be non-decreasing in slot.
	prev := int64(-1)
	for _, sub := range ranks {
		slot := s.Of(sub).Slot()
		if slot < prev {
			t.Fatal("ranks out of slot order")
		}
		prev = slot
	}
}

func TestHorizonExhaustion(t *testing.T) {
	// An infeasible system (utilization 3 on 2 processors) cannot drain by
	// the given horizon: Run must report an error rather than loop.
	sys := model.Periodic([]model.Weight{
		model.W(1, 1), model.W(1, 1), model.W(1, 1),
	}, 10)
	_, err := Run(sys, Options{M: 2, Horizon: 12})
	if err == nil {
		t.Fatal("expected horizon exhaustion error")
	}
	// Staggered, the cap counts each processor's boundaries: the same
	// error, and the same partial schedule as the seed's slot loop.
	opts := Options{M: 2, Horizon: 12, Staggered: true}
	got, err := Run(sys, opts)
	if err == nil {
		t.Fatal("staggered: expected horizon exhaustion error")
	}
	want, _ := RunReference(sys, opts)
	if n := len(got.Assignments()); n == 0 || !sched.Equal(got, want) {
		t.Errorf("staggered: partial schedule (%d assignments) differs from the reference's (%d)", n, len(want.Assignments()))
	}
}

// At full utilization with full quanta, the PD² SFQ schedule of a
// synchronous periodic system is cyclic with the hyperperiod: the engine's
// state (per-task progress relative to the window pattern) recurs at t = H,
// so slots t and t+H hold the same task sets.
func TestPD2ScheduleIsHyperperiodic(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 15; trial++ {
		m := 2 + rng.Intn(3)
		q := int64(4 + rng.Intn(5))
		n := m + 1 + rng.Intn(2*m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		sys := model.Periodic(ws, 2*q) // uniform periods: H = q
		s, err := Run(sys, Options{M: m})
		if err != nil {
			t.Fatal(err)
		}
		for slot := int64(0); slot < q; slot++ {
			first := taskSetInSlot(s, slot)
			second := taskSetInSlot(s, slot+q)
			if first != second {
				t.Fatalf("trial %d: slot %d tasks %q but slot %d tasks %q",
					trial, slot, first, slot+q, second)
			}
		}
	}
}

func taskSetInSlot(s *sched.Schedule, slot int64) string {
	var names []string
	for _, a := range s.InSlot(slot) {
		names = append(names, a.Sub.Task.Name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
