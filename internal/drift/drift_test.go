package drift_test

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/drift"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/sfq"
)

func fig2System(h int64) *model.System {
	return model.Periodic([]model.Weight{
		model.W(1, 6), model.W(1, 6), model.W(1, 6),
		model.W(1, 2), model.W(1, 2), model.W(1, 2),
	}, h)
}

// seededGIS is the seeded GIS system both equivalence tests below run: 2–4
// processors at full utilization over two windows of a 6–13 grid, jitter
// and omissions by seed, and the four yield models rotating by seed.
func seededGIS(seed int64) (int, *model.System, sched.YieldFn) {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	q := int64(6 + rng.Intn(8))
	n := m + 1 + rng.Intn(2*m)
	ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(int(seed)%3))
	sys := gen.System(rng, ws, gen.SystemOptions{
		Horizon:    2 * q,
		JitterProb: int(seed % 2 * 25),
		MaxJitter:  2,
		OmitProb:   int(seed % 3 * 10),
	})
	y := []sched.YieldFn{
		sched.FullCost,
		gen.UniformYield(seed, 8),
		gen.BimodalYield(seed, 50, 8),
		gen.AdversarialYield(rat.New(1, 16), nil),
	}[seed%4]
	return m, sys, y
}

// TestZeroDriftEqualsSFQ: with zero drift and zero phase the model is SFQ.
// Over the 300 seeded systems of TestStaggeredIsPhasedDrift under every
// policy, drift.Run starts every subtask at the same time for the same
// cost as the same decision as sfq.Run. Processors may differ: on a tied
// boundary drift.Run hands the heads out in processor-index order, while
// sfq.Run keeps a task on its previous processor when it can (affinity).
func TestZeroDriftEqualsSFQ(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		m, sys, y := seededGIS(seed)
		for _, pol := range prio.All() {
			d, err := drift.Run(sys, drift.Options{M: m, Policy: pol, Yield: y})
			if err != nil {
				t.Fatalf("seed %d %s: drift: %v", seed, pol.Name(), err)
			}
			ref, err := sfq.Run(sys, sfq.Options{M: m, Policy: pol, Yield: y})
			if err != nil {
				t.Fatalf("seed %d %s: sfq: %v", seed, pol.Name(), err)
			}
			for _, sub := range sys.All() {
				got, want := d.Of(sub), ref.Of(sub)
				if !got.Start.Equal(want.Start) || !got.Cost.Equal(want.Cost) || got.Decision != want.Decision {
					t.Fatalf("seed %d %s: %s at %s for %s as decision %d under drift-0; at %s for %s as %d under SFQ",
						seed, pol.Name(), sub, got.Start, got.Cost, got.Decision, want.Start, want.Cost, want.Decision)
				}
			}
		}
	}
	d, err := drift.Run(fig2System(12), drift.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MaxTardiness(); got.Sign() != 0 {
		t.Errorf("zero-drift tardiness %s", got)
	}
}

// TestStaggeredIsPhasedDrift: Holman & Anderson's staggered model is this
// package's model with phase k/M and no rate drift. Against the seed's
// slot-by-slot staggered loop, over 300 seeded GIS systems under every
// policy, drift.Run and sfq.Run (Staggered) place every subtask on the same
// processor at the same time for the same cost as the same decision.
func TestStaggeredIsPhasedDrift(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		m, sys, y := seededGIS(seed)
		phase := make([]rat.Rat, m)
		for k := range phase {
			phase[k] = rat.New(int64(k), int64(m))
		}
		for _, pol := range prio.All() {
			ref, err := sfq.RunReference(sys, sfq.Options{M: m, Policy: pol, Yield: y, Staggered: true})
			if err != nil {
				t.Fatalf("seed %d %s: reference: %v", seed, pol.Name(), err)
			}
			phased, err := drift.Run(sys, drift.Options{M: m, Policy: pol, Yield: y, Phase: phase})
			if err != nil {
				t.Fatalf("seed %d %s: drift: %v", seed, pol.Name(), err)
			}
			staggered, err := sfq.Run(sys, sfq.Options{M: m, Policy: pol, Yield: y, Staggered: true})
			if err != nil {
				t.Fatalf("seed %d %s: sfq: %v", seed, pol.Name(), err)
			}
			if staggered.Model != ref.Model {
				t.Fatalf("seed %d %s: model %q, reference %q", seed, pol.Name(), staggered.Model, ref.Model)
			}
			for _, run := range []struct {
				name string
				s    *sched.Schedule
			}{{"drift.Run", phased}, {"sfq.Run", staggered}} {
				for _, sub := range sys.All() {
					got, want := run.s.Of(sub), ref.Of(sub)
					if got.Proc != want.Proc || !got.Start.Equal(want.Start) || !got.Cost.Equal(want.Cost) || got.Decision != want.Decision {
						t.Fatalf("seed %d %s: %s puts %s on P%d at %s for %s as decision %d; reference P%d at %s for %s as %d",
							seed, pol.Name(), run.name, sub, got.Proc, got.Start, got.Cost, got.Decision,
							want.Proc, want.Start, want.Cost, want.Decision)
					}
				}
			}
		}
	}
}

// Pure phase offsets (no rate drift) reproduce the staggered model's
// behaviour class: bounded tardiness, no capacity loss.
func TestPhaseOnlyBoundedTardiness(t *testing.T) {
	sys := fig2System(12)
	d, err := drift.Run(sys, drift.Options{
		M:     2,
		Phase: []rat.Rat{rat.Zero, rat.New(1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateDVQ(); err != nil {
		t.Fatal(err)
	}
	if got := d.MaxTardiness(); rat.One.Less(got) {
		t.Errorf("phase-only tardiness %s > 1", got)
	}
}

// Rate drift loses capacity: at full utilization, tardiness grows with the
// horizon — the failure the paper's synchronization requirement prevents.
func TestDriftTardinessGrowsWithHorizon(t *testing.T) {
	eps := []rat.Rat{rat.New(1, 20), rat.New(1, 20)}
	tardAt := func(h int64) rat.Rat {
		sys := fig2System(h)
		d, err := drift.Run(sys, drift.Options{M: 2, Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		return d.MaxTardiness()
	}
	short, long := tardAt(12), tardAt(48)
	if !short.Less(long) {
		t.Errorf("drift tardiness did not grow: %s at h=12, %s at h=48", short, long)
	}
	if !rat.One.Less(long) {
		t.Errorf("drifted full-utilization tardiness %s should exceed one quantum by h=48", long)
	}
}

func TestDriftValidatesOptions(t *testing.T) {
	sys := fig2System(6)
	if _, err := drift.Run(sys, drift.Options{M: 0}); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := drift.Run(sys, drift.Options{M: 2, Epsilon: []rat.Rat{rat.New(-1, 10)}}); err == nil {
		t.Error("negative drift accepted")
	}
	if _, err := drift.Run(sys, drift.Options{M: 2, Phase: []rat.Rat{rat.FromInt(2)}}); err == nil {
		t.Error("phase ≥ 1 accepted")
	}
}

func TestDriftBoundaryCap(t *testing.T) {
	sys := fig2System(12)
	_, err := drift.Run(sys, drift.Options{M: 1, MaxBoundaries: 3}) // M=1 is overloaded
	if err == nil {
		t.Error("expected boundary cap error on overloaded run")
	}
}

func TestDriftScheduleStructurallyValid(t *testing.T) {
	sys := fig2System(12)
	d, err := drift.Run(sys, drift.Options{
		M:       2,
		Epsilon: []rat.Rat{rat.New(1, 100), rat.New(3, 100)},
		Phase:   []rat.Rat{rat.Zero, rat.New(1, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ValidateDVQ(); err != nil {
		t.Fatal(err)
	}
}
