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

// TestRankerAgreesWithOrder checks, over every subtask pair of every test
// system, that the Ranker's order over cached keys is prio.Order: Compare
// equals the policy's exact Cmp wherever that decides — the closed-form key
// comparators and PF's chain-walk fallback alike; the ablation policies
// exercise the pure fallback — and the (task ID, sequence) tie-break where
// it does not; it is antisymmetric, and Before is its sign.
func TestRankerAgreesWithOrder(t *testing.T) {
	for _, sys := range keyTestSystems(t) {
		subs := sys.All()
		keys := make([]prio.Key, len(subs))
		for i, s := range subs {
			keys[i] = prio.KeyOf(s)
		}
		for _, pol := range keyPolicies() {
			rank := prio.NewRanker(pol)
			for i, a := range subs {
				for j, b := range subs {
					got := rank.Compare(&keys[i], &keys[j], a, b)
					if c := pol.Cmp(a, b); c != 0 && got != c {
						t.Fatalf("%s: Compare(%s, %s) = %d, Cmp = %d", pol.Name(), a, b, got, c)
					}
					if want := prio.Order(pol, a, b); (got < 0) != want {
						t.Fatalf("%s: Compare(%s, %s) = %d, Order = %v", pol.Name(), a, b, got, want)
					}
					if back := rank.Compare(&keys[j], &keys[i], b, a); got != -back {
						t.Fatalf("%s: Compare(%s, %s) = %d but reversed = %d", pol.Name(), a, b, got, back)
					}
					if (got == 0) != (i == j) {
						t.Fatalf("%s: Compare(%s, %s) = 0 for distinct subtasks, or not for one", pol.Name(), a, b)
					}
					if before := rank.Before(&keys[i], &keys[j], a, b); before != (got < 0) {
						t.Fatalf("%s: Before(%s, %s) = %v, Compare = %d", pol.Name(), a, b, before, got)
					}
				}
			}
		}
	}
}
