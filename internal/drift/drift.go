// Package drift simulates the SFQ model on processors whose timer
// interrupts are NOT synchronized — the failure mode behind the paper's
// first motivation for the DVQ model:
//
//	"[The SFQ model] requires periodic timer interrupts that delineate
//	 quanta to be synchronized across all processors and drifts in the
//	 timing of interrupts on any one processor to be propagated to other
//	 processors as well."
//
// Here processor k's quantum boundaries occur at φ_k + j·(1 + ε_k) for
// j = 0, 1, …: a phase offset φ_k and a relative clock drift ε_k ≥ 0. The
// scheduler still behaves SFQ-locally — each processor picks the highest
// priority ready subtask at each of its own boundaries and idles any
// quantum residue — but no global resynchronization happens. With ε = 0 and
// φ_k = k/M this is Holman & Anderson's staggered model, which package sfq
// runs through Run (sfq.Options.Staggered).
//
// A drifting processor delivers one quantum per 1 + ε time units, i.e.
// capacity 1/(1+ε) < 1, so a task system with total utilization M is
// overloaded and its tardiness grows with the horizon: the SFQ guarantee
// genuinely depends on synchronized interrupts. The DVQ model needs no
// quantum boundaries at all, so it is immune by construction — experiment
// E15 quantifies both facts side by side.
package drift

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Options configures a drifting-SFQ run.
type Options struct {
	M      int
	Policy prio.Policy   // nil defaults to PD²
	Yield  sched.YieldFn // nil defaults to full quanta
	// Epsilon is the per-processor relative clock drift ε_k ≥ 0
	// (processor k's quanta last 1 + ε_k). Missing entries default to 0.
	Epsilon []rat.Rat
	// Phase is the per-processor boundary offset φ_k ∈ [0, 1). Missing
	// entries default to 0.
	Phase []rat.Rat
	// MaxBoundaries caps each processor's decision count; 0 derives a safe
	// bound from the workload size.
	MaxBoundaries int64
}

func (o *Options) fill(sys *model.System) error {
	if o.M < 1 {
		return fmt.Errorf("drift: M = %d", o.M)
	}
	if o.Policy == nil {
		o.Policy = prio.PD2{}
	}
	if o.Yield == nil {
		o.Yield = sched.FullCost
	}
	for _, e := range o.Epsilon {
		if e.Sign() < 0 {
			return fmt.Errorf("drift: negative drift %s", e)
		}
	}
	for _, p := range o.Phase {
		if p.Sign() < 0 || !p.Less(rat.One) {
			return fmt.Errorf("drift: phase %s outside [0,1)", p)
		}
	}
	if o.MaxBoundaries == 0 {
		o.MaxBoundaries = sys.Horizon() + 2*int64(sys.NumSubtasks()) + 4
	}
	return nil
}

func (o *Options) eps(k int) rat.Rat {
	if k < len(o.Epsilon) {
		return o.Epsilon[k]
	}
	return rat.Zero
}

func (o *Options) phase(k int) rat.Rat {
	if k < len(o.Phase) {
		return o.Phase[k]
	}
	return rat.Zero
}

// Run simulates sys under per-processor drifting quantum clocks. The
// returned schedule is complete (the engine drains the released workload)
// unless the boundary cap is hit, in which case an error is returned along
// with the partial schedule.
func Run(sys *model.System, opts Options) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	s := sched.New(sys, opts.M, opts.Policy.Name(), "SFQ-drift")

	n := len(sys.Tasks)
	cursor := make([]int, n)
	lastFinish := make([]rat.Rat, n)
	remaining := sys.NumSubtasks()

	// One cached key per task head, recomputed when the head moves on.
	rank := prio.NewRanker(opts.Policy)
	keys := make([]prio.Key, n)
	for _, task := range sys.Tasks {
		if seq := sys.Subtasks(task); len(seq) > 0 {
			keys[task.ID] = prio.KeyOf(seq[0])
		}
	}

	// Processor k decides at φ_k + j·(1 + ε_k), j = 0, 1, …: next[k] is its
	// pending boundary, j[k] how many it has passed.
	j := make([]int64, opts.M)
	next := make([]rat.Rat, opts.M)
	quantum := make([]rat.Rat, opts.M)
	for k := range next {
		next[k], quantum[k] = opts.phase(k), rat.One.Add(opts.eps(k))
	}

	bestReady := func(now rat.Rat) *model.Subtask {
		var best *model.Subtask
		for _, task := range sys.Tasks {
			seq := sys.Subtasks(task)
			c := cursor[task.ID]
			if c >= len(seq) {
				continue
			}
			head := seq[c]
			if now.Less(rat.FromInt(head.Elig)) {
				continue
			}
			if c > 0 && now.Less(lastFinish[task.ID]) {
				continue
			}
			if best == nil || rank.Before(&keys[task.ID], &keys[best.Task.ID], head, best) {
				best = head
			}
		}
		return best
	}

	decision := 0
	for remaining > 0 {
		// The next decision happens on the earliest pending boundary.
		k := 0
		for p := 1; p < opts.M; p++ {
			if next[p].Less(next[k]) {
				k = p
			}
		}
		if j[k] > opts.MaxBoundaries {
			return s, fmt.Errorf("drift: boundary cap %d hit with %d subtasks pending", opts.MaxBoundaries, remaining)
		}
		now := next[k]
		j[k]++
		next[k] = now.Add(quantum[k])
		sub := bestReady(now)
		if sub == nil {
			continue // this processor idles its whole quantum
		}
		decision++
		a := s.Add(sched.Assignment{
			Sub:      sub,
			Proc:     k,
			Start:    now,
			Cost:     opts.Yield(sub),
			Decision: decision,
		})
		id := sub.Task.ID
		cursor[id]++
		if seq := sys.Subtasks(sub.Task); cursor[id] < len(seq) {
			keys[id] = prio.KeyOf(seq[cursor[id]])
		}
		lastFinish[id] = a.Finish()
		remaining--
	}
	return s, nil
}
