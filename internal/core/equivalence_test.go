package core

import (
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/sched"
)

// enginePolicies is every policy the equivalence tests exercise: the four
// paper policies (PF's b = 1 ties and PD's weight rules go past the
// integer ranks to prio.Order) and the ablations.
func enginePolicies() []prio.Policy {
	return append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{})
}

// TestEngineEquivalence pins the fast-path RunDVQ (indexed ready heap of
// integer ranks, no event queue) to the retained seed
// implementation RunDVQReference: on the fuzz-corpus configurations —
// extended with a few more drawn from the same space — the two must
// produce schedules that are equal assignment-for-assignment, for every
// policy and yield model.
func TestEngineEquivalence(t *testing.T) {
	corpus := []struct {
		seed                  int64
		mRaw, qRaw, dyn, ysel uint8
	}{
		// The FuzzTheorem3 seed corpus.
		{1, 0, 0, 0, 0},
		{7, 1, 3, 3, 1},
		{42, 2, 7, 1, 2},
		{-9, 0, 5, 2, 3},
		// The FuzzTheorem2 seed corpus (reused as system draws).
		{13, 1, 4, 2, 0},
		{99, 2, 6, 3, 1},
		// Additional draws from the same space.
		{2026, 0, 2, 1, 2},
		{512, 2, 1, 0, 3},
		{-77, 1, 6, 3, 0},
	}
	for _, c := range corpus {
		m, opts, yields, rng := fuzzSystem(c.seed, c.mRaw, c.qRaw, c.dyn)
		q := opts.Horizon / 3
		n := m + 1 + int(c.seed&3)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(int(c.dyn)%3))
		sys := gen.System(rng, ws, *opts)
		y := yields[int(c.ysel)%len(yields)]()
		for _, pol := range enginePolicies() {
			fast, err := RunDVQ(sys, DVQOptions{M: m, Policy: pol, Yield: y})
			if err != nil {
				t.Fatalf("seed %d policy %s: fast engine: %v", c.seed, pol.Name(), err)
			}
			ref, err := RunDVQReference(sys, DVQOptions{M: m, Policy: pol, Yield: y})
			if err != nil {
				t.Fatalf("seed %d policy %s: reference engine: %v", c.seed, pol.Name(), err)
			}
			if !sched.Equal(fast, ref) {
				for _, d := range sched.Diff(fast, ref) {
					t.Errorf("seed %d policy %s: %s", c.seed, pol.Name(), d)
				}
				t.Fatalf("seed %d policy %s: fast DVQ diverges from reference", c.seed, pol.Name())
			}
			if err := fast.ValidateDVQ(); err != nil {
				t.Fatalf("seed %d policy %s: %v", c.seed, pol.Name(), err)
			}
		}
	}
}
