package prio_test

import (
	"fmt"
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
	return append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{}, latestFirst{})
}

// latestFirst is a policy with no key fast path, and not deadline-first at
// that: the Ranker must leave every pair of it to Cmp.
type latestFirst struct{}

func (latestFirst) Name() string { return "latest-first" }

func (latestFirst) Cmp(a, b *model.Subtask) int { return (prio.EPDF{}).Cmp(b, a) }

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
// comparators and PF's chain-walk fallback alike; latestFirst exercises the
// pure fallback — and the (task ID, sequence) tie-break where
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

// TestRankAgreesWithCompare is the contract of prio.Rank, over seeded
// random subtasks of every weight class at equal and nearby deadlines:
// wherever two ranks decide, their order is Ranker.Compare's, and they
// decide exactly where the policy's rules are integer ones — every pair
// under EPDF, PD², PD2NoGroup and PD2NoBBit; under PF all but b = 1 ties
// (the chain walk); under PD all but PD²'s ties (the weight rules); under a
// policy with no key fast path none. The draw must hit heavy b = 1
// subtasks with different group deadlines, light b = 1 ones (group deadline
// 0), PF b = 1 chains and PD ties of unequal weight.
func TestRankAgreesWithCompare(t *testing.T) {
	weights := []model.Weight{
		model.W(1, 2), model.W(2, 3), model.W(3, 4), model.W(3, 5), model.W(4, 5), model.W(5, 6),
		model.W(4, 7), model.W(5, 7), model.W(6, 7), model.W(5, 8), model.W(7, 8), model.W(1, 1),
		model.W(1, 3), model.W(1, 4), model.W(2, 5), model.W(1, 6), model.W(2, 7), model.W(3, 8), model.W(1, 8),
	}
	var heavyGroups, lightB1, pfChains, pdWeights int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var subs []*model.Subtask
		for id := 0; id < 2*len(weights); id++ { // two tasks of each weight: exact PF chain ties
			task := &model.Task{ID: id, Name: fmt.Sprint(id), W: weights[id%len(weights)]}
			for seq := 0; seq < 6; seq++ {
				subs = append(subs, &model.Subtask{Task: task, Index: 1 + rng.Int63n(24), Theta: rng.Int63n(3), Seq: seq})
			}
		}
		keys := make([]prio.Key, len(subs))
		for i, s := range subs {
			keys[i] = prio.KeyOf(s)
		}
		for _, pol := range keyPolicies() {
			rank := prio.NewRanker(pol)
			ranks := make([]prio.Rank, len(subs))
			for i := range subs {
				ranks[i] = rank.Rank(&keys[i])
			}
			for i, a := range subs {
				for j, b := range subs {
					ka, kb := &keys[i], &keys[j]
					before, decided := ranks[i].Before(&ranks[j])
					c := rank.Compare(ka, kb, a, b)
					if decided && before != (c < 0) {
						t.Fatalf("seed %d, %s: ranks %+v, %+v say before=%v, Compare(%s, %s) = %d",
							seed, pol.Name(), ranks[i], ranks[j], before, a, b, c)
					}
					tie := ka.Deadline == kb.Deadline
					b1 := tie && ka.B == 1 && kb.B == 1
					pd2Tie := tie && ka.B == kb.B && (ka.B == 0 || ka.GroupD == kb.GroupD)
					var want bool
					switch pol.(type) {
					case prio.PF:
						want = !b1
						if b1 && i != j {
							pfChains++
						}
					case prio.PD:
						want = !pd2Tie
						if pd2Tie && ka.WE*kb.WP != kb.WE*ka.WP {
							pdWeights++
						}
					case prio.PD2:
						want = true
						if b1 && ka.GroupD != kb.GroupD && ka.GroupD > 0 && kb.GroupD > 0 {
							heavyGroups++
						}
						if b1 && ka.GroupD == 0 && !ka.Heavy && i != j {
							lightB1++
						}
					case latestFirst:
					default:
						want = true
					}
					if decided != want {
						t.Fatalf("seed %d, %s: ranks of %s and %s decided=%v, want %v", seed, pol.Name(), a, b, decided, want)
					}
				}
			}
		}
	}
	if heavyGroups == 0 || lightB1 == 0 || pfChains == 0 || pdWeights == 0 {
		t.Fatalf("the draw missed a case: %d heavy b = 1 pairs of different group deadlines, %d light b = 1 pairs, %d PF b = 1 ties, %d PD weight ties",
			heavyGroups, lightB1, pfChains, pdWeights)
	}
}
