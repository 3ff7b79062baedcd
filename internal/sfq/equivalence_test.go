package sfq

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// TestEngineEquivalence pins Run — the online executive under a boundary
// clock with affinity — to the retained seed implementation RunReference
// across 100 random feasible GIS systems, every policy, both quantum
// alignments and all yield models.
func TestEngineEquivalence(t *testing.T) {
	pols := append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{})
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(8))
		n := m + 1 + rng.Intn(2*m)
		for int64(n) > int64(m)*q {
			n--
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(int(seed)%3))
		sys := gen.System(rng, ws, gen.SystemOptions{
			Horizon:    3 * q,
			JitterProb: int(seed % 2 * 25),
			MaxJitter:  2,
			OmitProb:   int(seed % 3 * 10),
		})
		yields := []sched.YieldFn{
			sched.FullCost,
			gen.UniformYield(seed, 8),
			gen.BimodalYield(seed, 50, 8),
			gen.AdversarialYield(rat.New(1, 16), nil),
		}
		y := yields[int(seed)%len(yields)]
		for _, pol := range pols {
			for _, staggered := range []bool{false, true} {
				opts := Options{M: m, Policy: pol, Yield: y, Staggered: staggered}
				fast, err := Run(sys, opts)
				if err != nil {
					t.Fatalf("seed %d policy %s staggered=%v: fast engine: %v", seed, pol.Name(), staggered, err)
				}
				ref, err := RunReference(sys, opts)
				if err != nil {
					t.Fatalf("seed %d policy %s staggered=%v: reference engine: %v", seed, pol.Name(), staggered, err)
				}
				if !sched.Equal(fast, ref) {
					for _, d := range sched.Diff(fast, ref) {
						t.Errorf("seed %d policy %s staggered=%v: %s", seed, pol.Name(), staggered, d)
					}
					t.Fatalf("seed %d policy %s staggered=%v: fast SFQ diverges from reference", seed, pol.Name(), staggered)
				}
			}
		}
	}
}
