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
// φ_k = k/M this is Holman & Anderson's staggered model (package sfq's
// Options.Staggered). Both run on online.Executive under a boundary clock;
// processors on one boundary take the heads in index order here, while
// sfq keeps a task on its previous processor when it can.
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
	"desyncpfair/internal/online"
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
	// MaxBoundaries caps the run: it ends on the earliest boundary
	// numbered MaxBoundaries (counting each processor's from 0), at
	// min_k φ_k + MaxBoundaries·(1 + ε_k), and work still pending then is
	// an error. 0 derives a safe bound from the workload size.
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
//
// This is a thin driver over online.Executive, as core.RunDVQ is: the
// executive adopts sys with processor k deciding only on its own
// boundaries; processors on one boundary take the heads in index order.
func Run(sys *model.System, opts Options) (*sched.Schedule, error) {
	if err := opts.fill(sys); err != nil {
		return nil, err
	}
	var until rat.Rat // the earliest boundary numbered MaxBoundaries
	for k := 0; k < opts.M; k++ {
		b := opts.phase(k).Add(rat.FromInt(opts.MaxBoundaries).Mul(rat.One.Add(opts.eps(k))))
		if k == 0 || b.Less(until) {
			until = b
		}
	}
	ex := online.AdoptClocked(sys, opts.M, opts.Policy, online.Clock{Phase: opts.Phase, Drift: opts.Epsilon})
	s := ex.Schedule()
	s.Model = "SFQ-drift"
	_ = ex.Run(until, opts.Yield, nil) // fails only for a time before now (0)
	if ex.Pending() > 0 {
		return s, fmt.Errorf("drift: boundary cap %d hit with %d subtasks pending", opts.MaxBoundaries, ex.Pending())
	}
	return s, nil
}
