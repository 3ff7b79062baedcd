package scenario

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// MaxSweepSpan bounds how many processor counts one sweep may evaluate:
// each point is a full counterfactual re-dispatch of the workload.
const MaxSweepSpan = 64

// SweepPoint is one (policy, M) evaluation of a recorded workload.
type SweepPoint struct {
	M int
	// Feasible reports whether every client's Σwt fits M — computed
	// exactly from the task weights, the same test admission applies.
	// Infeasible points are not dispatched.
	Feasible bool
	// MaxTardiness and Violations come from the counterfactual run
	// (zero values when !Feasible).
	MaxTardiness rat.Rat
	Violations   int64
	// MeetsBound reports MaxTardiness ≤ 1 quantum — Theorem 3's bound,
	// which PD² guarantees at any feasible M and heuristic policies may
	// need spare capacity to reach.
	MeetsBound bool
}

// Sweep is a capacity sweep of one policy over a recorded trace.
type Sweep struct {
	Policy string
	Lo, Hi int
	Points []SweepPoint
	// MinFeasibleM is the smallest swept M that admits the workload
	// (0 when none in range).
	MinFeasibleM int
	// MinBoundM is the smallest swept M at which the policy also keeps
	// max tardiness within one quantum (0 when none in range). For PD²
	// the two coincide; the gap MinBoundM − MinFeasibleM is what the
	// sweep exists to measure for the heuristics.
	MinBoundM int
}

// SweepM re-dispatches a recorded workload under `policy` at every
// M in [lo, hi], answering "what is the minimal capacity this policy
// needs for this trace?". The workload (clients, task weights, exact
// arrival times) is reconstructed from the trace, so the sweep varies
// only M — same inputs, one knob.
func SweepM(recs []Record, policy string, lo, hi int) (*Sweep, error) {
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("scenario: bad sweep range %d:%d (want 1 ≤ lo ≤ hi)", lo, hi)
	}
	if hi-lo+1 > MaxSweepSpan {
		return nil, fmt.Errorf("scenario: sweep range %d:%d spans %d points (max %d)", lo, hi, hi-lo+1, MaxSweepSpan)
	}
	if prio.ByName(policy) == nil {
		return nil, fmt.Errorf("scenario: unknown policy %q", policy)
	}
	w, _, err := ReconstructWorkload(recs)
	if err != nil {
		return nil, err
	}
	// The binding constraint is the heaviest client: every client gets its
	// own executive on M processors, so feasibility is max Σwt ≤ M.
	maxUtil := rat.Zero
	for _, c := range w.Clients {
		util := rat.Zero
		for _, t := range c.Tasks {
			util = util.Add(rat.New(t.E, t.P))
		}
		if maxUtil.Less(util) {
			maxUtil = util
		}
	}

	bound := rat.FromInt(1)
	sw := &Sweep{Policy: policy, Lo: lo, Hi: hi}
	for m := lo; m <= hi; m++ {
		pt := SweepPoint{M: m, Feasible: model.Feasible(maxUtil, m)}
		if pt.Feasible {
			alt := *w.Spec
			alt.Policy = policy
			alt.M = m
			cw := &Workload{Spec: &alt, Clients: w.Clients, Arrivals: w.Arrivals}
			res, err := Run(cw, NewExecTarget())
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep M=%d: %w", m, err)
			}
			pt.MaxTardiness = res.Report.MaxTardiness
			for _, c := range res.Report.Classes {
				pt.Violations += c.Violations
			}
			pt.MeetsBound = pt.MaxTardiness.Cmp(bound) <= 0
			if sw.MinFeasibleM == 0 {
				sw.MinFeasibleM = m
			}
			if pt.MeetsBound && sw.MinBoundM == 0 {
				sw.MinBoundM = m
			}
		}
		sw.Points = append(sw.Points, pt)
	}
	return sw, nil
}
