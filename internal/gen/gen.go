// Package gen generates random task systems and yield (actual execution
// cost) models for the experiments. The paper argues its results for all
// feasible GIS task systems; the generators here sample that space —
// periodic systems at exact total utilization, IS systems with random
// release jitter, GIS systems with random subtask omissions — plus the
// yield behaviours that distinguish SFQ from DVQ (early-completing jobs,
// including the adversarial 1−δ yields of the tightness construction).
//
// Everything is deterministic given a seed. Yield models hash the subtask
// identity rather than consuming a shared RNG stream, so two engines
// simulating the same system observe identical per-subtask costs
// regardless of the order in which they schedule.
package gen

import (
	"math"
	"math/rand"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// WeightClass selects the utilization profile of generated tasks.
type WeightClass int

const (
	// MixedWeights draws weights uniformly over the grid (any e/p).
	MixedWeights WeightClass = iota
	// LightWeights draws weights < 1/2.
	LightWeights
	// HeavyWeights draws weights ≥ 1/2.
	HeavyWeights
)

// GridWeights returns n weights, each a multiple of 1/q in (0, 1], summing
// exactly to util (given as an integral multiple of 1/q: util = sum/q).
// It panics if the request is infeasible (sum < n or sum > n·q).
func GridWeights(rng *rand.Rand, n int, q int64, sum int64, class WeightClass) []model.Weight {
	if int64(n) > sum || sum > int64(n)*q {
		panic("gen: infeasible grid weight request")
	}
	lo, hi := int64(1), q
	switch class {
	case LightWeights:
		hi = (q - 1) / 2
		if hi < 1 {
			hi = 1
		}
	case HeavyWeights:
		lo = (q + 1) / 2
	}
	// Start from the minimum allocation and spread the remainder one unit
	// at a time over tasks that still have headroom. If class bounds make
	// the exact sum unreachable, relax them (the class is a preference).
	parts := make([]int64, n)
	for i := range parts {
		parts[i] = lo
	}
	remaining := sum - int64(n)*lo
	if remaining < 0 {
		for i := range parts {
			parts[i] = 1
		}
		remaining = sum - int64(n)
		hi = q
	}
	for remaining > 0 {
		progressed := false
		for attempts := 0; attempts < 4*n && remaining > 0; attempts++ {
			i := rng.Intn(n)
			if parts[i] < hi {
				parts[i]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			hi = q // relax the class cap to absorb the rest
		}
	}
	ws := make([]model.Weight, n)
	for i, e := range parts {
		ws[i] = model.W(e, q)
	}
	return ws
}

// VariedWeights returns n weights e/p with p drawn from [2, maxP] and e
// from [1, p] (clamped per class). The sum is unconstrained.
func VariedWeights(rng *rand.Rand, n int, maxP int64, class WeightClass) []model.Weight {
	ws := make([]model.Weight, n)
	for i := range ws {
		p := 2 + rng.Int63n(maxP-1)
		var e int64
		switch class {
		case LightWeights:
			e = 1 + rng.Int63n(max64(1, (p-1)/2))
		case HeavyWeights:
			e = (p+1)/2 + rng.Int63n(p-(p+1)/2+1)
		default:
			e = 1 + rng.Int63n(p)
		}
		ws[i] = model.W(e, p)
	}
	return ws
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SystemOptions configures random task-system generation.
type SystemOptions struct {
	Horizon int64 // release subtasks with r < Horizon
	// JitterProb (percent, 0–100) is the chance that each subtask's window
	// is right-shifted relative to its predecessor (IS behaviour).
	JitterProb int
	MaxJitter  int64 // maximum per-step right shift
	// OmitProb (percent, 0–100) is the chance each subtask index is
	// skipped (GIS behaviour). The first index of each task is kept.
	OmitProb int
	// EarlyRelease (number of slots) lowers eligibility times below
	// releases by up to this much, respecting eq. (6).
	EarlyRelease int64
}

// System builds a random task system from weights per opts. With the zero
// options it produces the synchronous periodic system over horizon 0
// (empty), so callers must set Horizon.
func System(rng *rand.Rand, weights []model.Weight, opts SystemOptions) *model.System {
	sys := model.NewSystem()
	for k, w := range weights {
		t := sys.AddTask(model.TaskName(k), w)
		theta := int64(0)
		prevElig := int64(0)
		for i := int64(1); ; i++ {
			if i > 1 && opts.OmitProb > 0 && rng.Intn(100) < opts.OmitProb {
				continue
			}
			if opts.JitterProb > 0 && opts.MaxJitter > 0 && rng.Intn(100) < opts.JitterProb {
				theta += 1 + rng.Int63n(opts.MaxJitter)
			}
			s := model.Subtask{Task: t, Index: i, Theta: theta}
			r := s.Release()
			if r >= opts.Horizon {
				break
			}
			elig := r
			if opts.EarlyRelease > 0 {
				elig = r - rng.Int63n(opts.EarlyRelease+1)
				if elig < 0 {
					elig = 0
				}
			}
			if elig < prevElig {
				elig = prevElig // keep eq. (6) monotone
			}
			prevElig = elig
			sys.AddSubtask(t, i, theta, elig)
		}
	}
	return sys
}

// splitmix64 is the standard 64-bit mix used to derive per-subtask values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func subHash(seed int64, s *model.Subtask) uint64 {
	return splitmix64(uint64(seed) ^ splitmix64(uint64(s.Task.ID)*0x100000001b3) ^ splitmix64(uint64(s.Index)))
}

// UniformYield returns a yield model with c(T_i) uniform on the grid
// {1/den, 2/den, …, den/den}, hashed per subtask from seed.
func UniformYield(seed int64, den int64) sched.YieldFn {
	if den < 1 {
		panic("gen: UniformYield needs den ≥ 1")
	}
	return func(s *model.Subtask) rat.Rat {
		k := int64(subHash(seed, s)%uint64(den)) + 1
		return rat.New(k, den)
	}
}

// BimodalYield returns a yield model in which each subtask uses its full
// quantum with probability pFull (percent) and otherwise yields early with
// cost uniform on {1/den, …, ⌈den/2⌉/den}. This models the paper's second
// motivation: pessimistic WCETs mean many jobs complete well early.
func BimodalYield(seed int64, pFull int, den int64) sched.YieldFn {
	if den < 2 {
		panic("gen: BimodalYield needs den ≥ 2")
	}
	return func(s *model.Subtask) rat.Rat {
		h := subHash(seed, s)
		if int(h%100) < pFull {
			return rat.One
		}
		k := int64((h>>32)%uint64(den/2)) + 1
		return rat.New(k, den)
	}
}

// AdversarialYield returns the tightness construction's yield model: each
// selected subtask yields δ before the end of its quantum (c = 1 − δ) and
// every other subtask uses its full quantum. A nil victim selects all.
func AdversarialYield(delta rat.Rat, victim func(*model.Subtask) bool) sched.YieldFn {
	c := rat.One.Sub(delta)
	if c.Sign() <= 0 || rat.One.Less(c) {
		panic("gen: adversarial cost outside (0,1]")
	}
	return func(s *model.Subtask) rat.Rat {
		if victim == nil || victim(s) {
			return c
		}
		return rat.One
	}
}

// UUniFastGrid draws n task weights summing exactly to sum/q using the
// UUniFast algorithm (Bini & Buttazzo), the field-standard unbiased
// utilization sampler, discretized to the 1/q grid: the recurrence runs in
// units of 1/q and each task receives at least one unit and at most q
// (weight ≤ 1). Compared with GridWeights (which spreads units one at a
// time), UUniFast produces the heavy-tailed weight spreads typical of
// published evaluations.
func UUniFastGrid(rng *rand.Rand, n int, q int64, sum int64) []model.Weight {
	if int64(n) > sum || sum > int64(n)*q {
		panic("gen: infeasible UUniFast request")
	}
	// Work with the spare units above the per-task minimum of one.
	spare := sum - int64(n)
	ws := make([]model.Weight, n)
	for i := 0; i < n-1; i++ {
		// next = spare · U^(1/(n-1-i)) with U uniform: the UUniFast step.
		u := rng.Float64()
		next := int64(float64(spare) * math.Pow(u, 1/float64(n-1-i)))
		take := spare - next
		// Clamp to the per-task cap and push the excess back to the pool.
		if take > q-1 {
			take = q - 1
		}
		ws[i] = model.W(1+take, q)
		spare -= take
	}
	// Last task absorbs the remainder; redistribute any excess over the cap.
	last := spare
	for last > q-1 {
		moved := false
		for i := 0; i < n-1 && last > q-1; i++ {
			if ws[i].E < q {
				ws[i].E++
				last--
				moved = true
			}
		}
		if !moved {
			panic("gen: UUniFast redistribution failed") // impossible: sum ≤ n·q
		}
	}
	ws[n-1] = model.W(1+last, q)
	return ws
}
