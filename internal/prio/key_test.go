package prio_test

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
)

// keyTestSystems draws task systems spanning the weight classes, IS jitter
// and GIS omissions, so every branch of the key comparators (heavy/light,
// b-bit, group deadline, PF chain ties) is hit.
func keyTestSystems(t *testing.T) []*model.System {
	t.Helper()
	var out []*model.System
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(8))
		n := m + 1 + rng.Intn(2*m)
		for int64(n) > int64(m)*q {
			n--
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(int(seed)%3))
		out = append(out, gen.System(rng, ws, gen.SystemOptions{
			Horizon:    3 * q,
			JitterProb: int(seed%2) * 25,
			MaxJitter:  2,
			OmitProb:   int(seed%3) * 10,
		}))
	}
	// A hand-built system with equal-weight tasks at different phases, to
	// force exact PF chain ties and identical keys across tasks.
	sys := model.NewSystem()
	sys.AddPeriodic("A", model.W(3, 4), 16)
	sys.AddPeriodic("B", model.W(3, 4), 16)
	sys.AddPeriodic("C", model.W(1, 4), 16)
	sys.AddPeriodic("D", model.W(7, 9), 18)
	out = append(out, sys)
	return out
}

func keyPolicies() []prio.Policy {
	return append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{})
}

// TestKeyOf checks that a Key caches exactly the quantities the policies
// consult.
func TestKeyOf(t *testing.T) {
	for _, sys := range keyTestSystems(t) {
		for _, s := range sys.All() {
			k := prio.KeyOf(s)
			if k.Deadline != s.Deadline() || k.GroupD != s.GroupDeadline() || int(k.B) != s.BBit() {
				t.Fatalf("%s: key %+v does not match subtask", s, k)
			}
			if k.WE != s.Task.W.E || k.WP != s.Task.W.P || k.Heavy != s.Task.W.IsHeavy() {
				t.Fatalf("%s: key weight fields wrong: %+v", s, k)
			}
			if int(k.TaskID) != s.Task.ID || int(k.Seq) != s.Seq {
				t.Fatalf("%s: key identity fields wrong: %+v", s, k)
			}
		}
	}
}

// TestKeyCmpAgreesWithCmp checks, over every subtask pair of every test
// system, that a decided KeyCmp equals the policy's exact Cmp — and that
// the key fast path is decided for the closed-form policies.
func TestKeyCmpAgreesWithCmp(t *testing.T) {
	for _, sys := range keyTestSystems(t) {
		subs := sys.All()
		for _, pol := range keyPolicies() {
			for _, a := range subs {
				for _, b := range subs {
					ka, kb := prio.KeyOf(a), prio.KeyOf(b)
					got, decided := prio.KeyCmp(pol, ka, kb)
					want := pol.Cmp(a, b)
					if decided && got != want {
						t.Fatalf("%s: KeyCmp(%s, %s) = %d, Cmp = %d", pol.Name(), a, b, got, want)
					}
					switch pol.(type) {
					case prio.EPDF, prio.PD2, prio.PD:
						if !decided {
							t.Fatalf("%s: KeyCmp(%s, %s) undecided for closed-form policy", pol.Name(), a, b)
						}
					}
				}
			}
		}
	}
}

// TestComparerAgreesWithOrder checks that the Comparer's memoized,
// key-cached total order — and the Ranker's memo-free one over the same
// keys — agrees with prio.Order on every pair under every policy — including the ablation policies, which exercise the pure
// exact-fallback path. Each pair is compared twice to cover the memo-hit
// path.
func TestComparerAgreesWithOrder(t *testing.T) {
	for _, sys := range keyTestSystems(t) {
		subs := sys.All()
		for _, pol := range keyPolicies() {
			c, rank := prio.NewComparer(pol, sys), prio.NewRanker(pol)
			if c.Policy() != pol {
				t.Fatalf("Policy() = %v, want %v", c.Policy(), pol)
			}
			for pass := 0; pass < 2; pass++ {
				for _, a := range subs {
					for _, b := range subs {
						if got, want := c.Cmp(a, b), pol.Cmp(a, b); got != want {
							t.Fatalf("%s pass %d: Comparer.Cmp(%s, %s) = %d, want %d", pol.Name(), pass, a, b, got, want)
						}
						if got, want := c.Order(a, b), prio.Order(pol, a, b); got != want {
							t.Fatalf("%s pass %d: Comparer.Order(%s, %s) = %v, want %v", pol.Name(), pass, a, b, got, want)
						}
						ka, kb := c.Key(a), c.Key(b)
						if got, want := rank.Before(&ka, &kb, a, b), prio.Order(pol, a, b); got != want {
							t.Fatalf("%s: Ranker.Before(%s, %s) = %v, want %v", pol.Name(), a, b, got, want)
						}
						if a.GID == b.GID && c.Total(a, b) != 0 {
							t.Fatalf("%s: Total(%s, %s) != 0 for identical subtask", pol.Name(), a, b)
						}
					}
				}
			}
			if k := c.Key(subs[0]); k != prio.KeyOf(subs[0]) {
				t.Fatalf("Key(%s) = %+v, want %+v", subs[0], k, prio.KeyOf(subs[0]))
			}
		}
	}
}
