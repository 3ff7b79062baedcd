// Package sfq implements Pfair scheduling under the SFQ model — the
// synchronized, fixed-size-quantum model of classical Pfair work that the
// paper relaxes. Scheduling decisions are made at slot boundaries only; if
// a subtask yields before the end of its quantum, the residue of the
// quantum is wasted (the model is non-work-conserving).
//
// Options.Staggered selects the *staggered* variant of Holman & Anderson
// (2004): quanta remain uniform in size, but the quantum start points on
// successive processors are offset by 1/M, spreading scheduler invocations
// (and bus traffic) over the slot.
//
// Both run on the repository's one dispatch loop, online.Executive, under a
// boundary clock (online.Clock) with task affinity.
package sfq

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// Options configures an SFQ run.
type Options struct {
	M      int         // number of processors (≥ 1)
	Policy prio.Policy // subtask priority; nil defaults to PD²
	Yield  sched.YieldFn
	// Staggered offsets the quantum boundaries of processor k by k/M
	// (Holman & Anderson); each processor decides at its own boundaries.
	Staggered bool
	// Horizon caps the number of slots simulated; 0 derives a safe bound
	// (latest deadline + number of subtasks + 1, enough for any
	// work-conserving slot scheduler to drain).
	Horizon int64
}

func (o *Options) fill(sys *model.System) error {
	if o.M < 1 {
		return fmt.Errorf("sfq: M = %d", o.M)
	}
	if o.Policy == nil {
		o.Policy = prio.PD2{}
	}
	if o.Yield == nil {
		o.Yield = sched.FullCost
	}
	if o.Horizon == 0 {
		o.Horizon = sys.Horizon() + int64(sys.NumSubtasks()) + 1
	}
	return nil
}

// Run simulates sys on opts.M processors under the SFQ model and returns
// the complete schedule. An error is returned only if the horizon is
// exhausted before every subtask is scheduled (which cannot happen with the
// default horizon) or options are invalid.
//
// This is a thin driver over online.Executive, as core.RunDVQ is: the
// executive adopts sys with every processor deciding only on its quantum
// boundaries — the integers, or k/M past them when staggered — and a head
// preferring its task's previous processor. RunReference retains the seed
// implementation; TestEngineEquivalence pins the two to identical
// schedules.
func Run(sys *model.System, opts Options) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	m := int64(opts.M)
	clock := online.Clock{Affinity: true}
	label, until := "SFQ", rat.FromInt(opts.Horizon) // the last slot simulated
	if opts.Staggered {
		clock.Phase = make([]rat.Rat, m)
		for k := range clock.Phase {
			clock.Phase[k] = rat.New(int64(k), m)
		}
		label, until = "SFQ-staggered", rat.New(opts.Horizon*m+m-1, m) // its last processor's boundary
	}
	ex := online.AdoptClocked(sys, opts.M, opts.Policy, clock)
	s := ex.Schedule()
	s.Model = label
	_ = ex.Run(until, opts.Yield, nil) // fails only for a time before now (0)
	if ex.Pending() > 0 {
		return s, fmt.Errorf("sfq: horizon %d exhausted with %d subtasks pending", opts.Horizon, ex.Pending())
	}
	return s, nil
}
