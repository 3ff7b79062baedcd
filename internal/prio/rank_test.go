package prio_test

import (
	"fmt"
	"math/rand"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
)

// rankTestSystems draws task systems spanning the weight classes, IS jitter
// and GIS omissions, so every branch of the rankings (heavy/light, b-bit,
// group deadline, PF chain ties) is hit.
func rankTestSystems(t *testing.T) []*model.System {
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
	// force exact PF chain ties and identical ranks but for the task ID.
	sys := model.NewSystem()
	sys.AddPeriodic("A", model.W(3, 4), 16)
	sys.AddPeriodic("B", model.W(3, 4), 16)
	sys.AddPeriodic("C", model.W(1, 4), 16)
	sys.AddPeriodic("D", model.W(7, 9), 18)
	out = append(out, sys)
	return out
}

func rankPolicies() []prio.Policy {
	return append(prio.All(), prio.PD2NoGroup{}, prio.PD2NoBBit{}, latestFirst{})
}

// latestFirst is a policy with no fast path, and not deadline-first at
// that: the Ranker must leave every pair of it to Order.
type latestFirst struct{}

func (latestFirst) Name() string { return "latest-first" }

func (latestFirst) Cmp(a, b *model.Subtask) int { return (prio.EPDF{}).Cmp(b, a) }

// TestRankerAgreesWithOrder checks, over every subtask pair of every test
// system under every policy — latestFirst exercises a policy with no fast
// path — that the ranks are prio.Order wherever they decide, that they
// decide a pair in both directions or in neither, that a decided order is
// irreflexive and antisymmetric, and that a rank carries its subtask's
// pseudo-deadline (a deadline-first policy) and identity.
func TestRankerAgreesWithOrder(t *testing.T) {
	for _, sys := range rankTestSystems(t) {
		subs := sys.All()
		for _, pol := range rankPolicies() {
			rank := prio.NewRanker(pol)
			ranks := make([]prio.Rank, len(subs))
			for i, s := range subs {
				ranks[i] = rank.Rank(s)
				r := &ranks[i]
				if _, late := pol.(latestFirst); !late && r.Deadline != s.Deadline() {
					t.Fatalf("%s: rank %+v of %s, deadline %d", pol.Name(), *r, s, s.Deadline())
				}
				if r.TaskID() != s.Task.ID || int(uint32(r.ID)) != s.Seq {
					t.Fatalf("%s: rank %+v of %s names another subtask", pol.Name(), *r, s)
				}
			}
			for i, a := range subs {
				for j, b := range subs {
					before, decided := ranks[i].Before(&ranks[j])
					back, backDecided := ranks[j].Before(&ranks[i])
					if decided != backDecided {
						t.Fatalf("%s: ranks decide (%s, %s) = %v but reversed %v", pol.Name(), a, b, decided, backDecided)
					}
					if !decided {
						continue
					}
					if want := prio.Order(pol, a, b); before != want {
						t.Fatalf("%s: ranks say %s before %s = %v, Order = %v", pol.Name(), a, b, before, want)
					}
					if (i == j && before) || (i != j && before == back) {
						t.Fatalf("%s: ranks say %s before %s = %v, and reversed %v", pol.Name(), a, b, before, back)
					}
				}
			}
		}
	}
}

// TestRankDecidesIntegerRules is the contract of prio.Rank, over seeded
// random subtasks of every weight class at equal and nearby deadlines:
// wherever two ranks decide, their order is prio.Order's, and they decide
// exactly where the policy's rules are integer ones — every pair under
// EPDF, PD², PD2NoGroup and PD2NoBBit; under PF all but b = 1 ties (the
// chain walk); under PD all but PD²'s ties (the weight rules); under a
// policy with no fast path none. The draw must hit heavy b = 1
// subtasks with different group deadlines, light b = 1 ones (group deadline
// 0), PF b = 1 chains and PD ties of unequal weight.
func TestRankDecidesIntegerRules(t *testing.T) {
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
		for _, pol := range rankPolicies() {
			rank := prio.NewRanker(pol)
			ranks := make([]prio.Rank, len(subs))
			for i, s := range subs {
				ranks[i] = rank.Rank(s)
			}
			for i, a := range subs {
				for j, b := range subs {
					before, decided := ranks[i].Before(&ranks[j])
					if order := prio.Order(pol, a, b); decided && before != order {
						t.Fatalf("seed %d, %s: ranks %+v, %+v say before=%v, Order(%s, %s) = %v",
							seed, pol.Name(), ranks[i], ranks[j], before, a, b, order)
					}
					wa, wb := a.Task.W, b.Task.W
					tie := a.Deadline() == b.Deadline()
					b1 := tie && a.BBit() == 1 && b.BBit() == 1
					pd2Tie := tie && a.BBit() == b.BBit() && (a.BBit() == 0 || a.GroupDeadline() == b.GroupDeadline())
					var want bool
					switch pol.(type) {
					case prio.PF:
						want = !b1
						if b1 && i != j {
							pfChains++
						}
					case prio.PD:
						want = !pd2Tie
						if pd2Tie && wa.E*wb.P != wb.E*wa.P {
							pdWeights++
						}
					case prio.PD2:
						want = true
						if ga, gb := a.GroupDeadline(), b.GroupDeadline(); b1 && ga != gb && ga > 0 && gb > 0 {
							heavyGroups++
						}
						if b1 && a.GroupDeadline() == 0 && !wa.IsHeavy() && i != j {
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
