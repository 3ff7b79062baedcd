// Package core implements the contribution of Devi & Anderson (IPPS 2005):
//
//   - the DVQ model — desynchronized, variable-size quanta — as an
//     event-driven, work-conserving scheduler over exact rational time
//     (this file);
//   - algorithm PD^B, the SFQ-model algorithm that mimics the priority
//     inversions possible under PD²-DVQ (pdb.go);
//   - the S_DQ → S_B schedule transform of Sec. 3.2, with executable
//     checkers for Lemmas 3–5 (transform.go);
//   - blocking analysis: detection of eligibility- and predecessor-blocked
//     subtasks and of the Property-PB witness sets (blocking.go);
//   - the k-compliance machinery of Sec. 3.3 / Lemma 6 (compliance.go).
package core

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// DVQOptions configures a DVQ-model run.
type DVQOptions struct {
	M      int           // number of processors (≥ 1)
	Policy prio.Policy   // nil defaults to PD² (the paper's PD²-DVQ)
	Yield  sched.YieldFn // nil defaults to full quanta
	// Horizon caps simulated time; 0 derives a safe bound.
	Horizon int64
}

func (o *DVQOptions) fill(sys *model.System) error {
	if o.M < 1 {
		return fmt.Errorf("core: M = %d", o.M)
	}
	if o.Policy == nil {
		o.Policy = prio.PD2{}
	}
	if o.Yield == nil {
		o.Yield = sched.FullCost
	}
	if o.Horizon == 0 {
		o.Horizon = sys.Horizon() + int64(sys.NumSubtasks()) + 2
	}
	return nil
}

// RunDVQ simulates sys under the DVQ model: whenever a processor becomes
// available (at any rational time), a new quantum begins immediately and is
// allocated to the highest-priority ready subtask; if a subtask yields an
// interval δ before the end of its quantum, that time is reclaimed rather
// than wasted. Decisions at equal times are made in processor-index order.
//
// With opts.Policy == PD² this is the paper's PD²-DVQ. The returned
// schedule satisfies Schedule.ValidateDVQ for any valid task system.
//
// This is a thin driver over the repository's one incremental engine,
// online.Executive: it adopts sys with everything released, runs the
// executive to the horizon, and relabels the schedule. RunDVQReference
// retains the seed implementation; TestEngineEquivalence pins the two to
// identical schedules.
func RunDVQ(sys *model.System, opts DVQOptions) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	ex := online.Adopt(sys, opts.M, opts.Policy)
	s := ex.Schedule()
	s.Model = "DVQ"
	horizon := rat.FromInt(opts.Horizon)
	if err := ex.Run(horizon, opts.Yield, nil); err != nil {
		return s, err
	}
	if ex.Pending() > 0 {
		return s, fmt.Errorf("core: horizon %s exhausted with %d subtasks pending", horizon, ex.Pending())
	}
	return s, nil
}
