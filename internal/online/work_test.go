package online_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"desyncpfair/internal/gen"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/sched"
)

// TestWorkPinnedPerPolicy pins, as counts, what the engine does to
// schedule sixteen seeded systems under each policy, with full quanta and
// with early yields: the exact Executive.Work totals (ready-heap
// comparisons, the ties of them only the policy's Cmp decided, heap
// moves) and a digest of the dispatch sequence as (task, index, proc,
// start, finish). A change to how heads are ranked or compared that keeps
// every schedule must keep these numbers too; one that changes them
// changes the engine's cost, and says so here.
func TestWorkPinnedPerPolicy(t *testing.T) {
	want := map[string]struct {
		work   online.Work
		digest uint64
	}{
		"PD2 yielded=false":     {online.Work{RankCmps: 3991, Compares: 0, Moves: 5626}, 0x5109cdc64e51ee5b},
		"PD2 yielded=true":      {online.Work{RankCmps: 2805, Compares: 0, Moves: 4694}, 0xc3b4284982372ec9},
		"PD yielded=false":      {online.Work{RankCmps: 4050, Compares: 1912, Moves: 5758}, 0x64f3844fda471fcb},
		"PD yielded=true":       {online.Work{RankCmps: 2817, Compares: 1467, Moves: 4732}, 0x20b22505b8df17a6},
		"PF yielded=false":      {online.Work{RankCmps: 4005, Compares: 741, Moves: 5640}, 0xd28c45435d8afb69},
		"PF yielded=true":       {online.Work{RankCmps: 2807, Compares: 615, Moves: 4713}, 0x3e9b1d1a4ef2bae0},
		"EPDF yielded=false":    {online.Work{RankCmps: 3995, Compares: 0, Moves: 5617}, 0xef643620d2a297a5},
		"EPDF yielded=true":     {online.Work{RankCmps: 2812, Compares: 0, Moves: 4686}, 0xca8ed1d82a21cbcf},
		"PD2-noD yielded=false": {online.Work{RankCmps: 3999, Compares: 0, Moves: 5626}, 0xe7bcee702b0c8b87},
		"PD2-noD yielded=true":  {online.Work{RankCmps: 2807, Compares: 0, Moves: 4703}, 0x2e87694a1b2ce220},
		// PD2-nob is EPDF under another name: the same schedule, the same work.
		"PD2-nob yielded=false": {online.Work{RankCmps: 3995, Compares: 0, Moves: 5617}, 0xef643620d2a297a5},
		"PD2-nob yielded=true":  {online.Work{RankCmps: 2812, Compares: 0, Moves: 4686}, 0xca8ed1d82a21cbcf},
	}
	for _, pol := range []prio.Policy{prio.PD2{}, prio.PD{}, prio.PF{}, prio.EPDF{}, prio.PD2NoGroup{}, prio.PD2NoBBit{}} {
		for _, yielded := range []bool{false, true} {
			var total online.Work
			h := fnv.New64a()
			for seed := int64(1); seed <= 16; seed++ {
				rng := rand.New(rand.NewSource(seed))
				m := 2 + rng.Intn(4)
				q := int64(6 + rng.Intn(10))
				n := m + 2 + rng.Intn(3*m)
				sys := gen.System(rng, gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(seed%3)), gen.SystemOptions{
					Horizon:    4 * q,
					JitterProb: int(seed%2) * 20,
					MaxJitter:  2,
					OmitProb:   int(seed%3) * 10,
				})
				y := sched.FullCost
				if yielded {
					y = gen.UniformYield(seed, 8)
				}
				ex := online.Adopt(sys, m, pol)
				if _, err := ex.Drain(y); err != nil {
					t.Fatal(err)
				}
				w := ex.Work()
				total.RankCmps += w.RankCmps
				total.Compares += w.Compares
				total.Moves += w.Moves
				for _, a := range ex.Schedule().Assignments() {
					fmt.Fprintf(h, "%d %d %d %s %s\n", a.Sub.Task.ID, a.Sub.Index, a.Proc, a.Start, a.Finish())
				}
				if got, want := ex.Schedule().Len(), sys.NumSubtasks(); got != want {
					t.Fatalf("%s seed %d: %d of %d subtasks dispatched", pol.Name(), seed, got, want)
				}
			}
			name := fmt.Sprintf("%s yielded=%v", pol.Name(), yielded)
			if w := want[name]; total != w.work || h.Sum64() != w.digest {
				t.Errorf("%s: work %+v digest %#x, want %+v %#x", name, total, h.Sum64(), w.work, w.digest)
			}
		}
	}
}
