// Package admission collects the schedulability tests for every scheduler
// family in this repository in one planning API: given a weight set and a
// processor count, which schedulers can take the workload, and with what
// guarantee? It is the decision companion to the simulators — the tests
// here are analytical, not empirical.
package admission

import (
	"fmt"

	"desyncpfair/internal/baseline"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Guarantee describes what a positive admission decision buys.
type Guarantee int

const (
	// HardRealTime: every deadline met.
	HardRealTime Guarantee = iota
	// SoftRealTime: deadlines may be missed by a bounded amount (one
	// quantum, for the DVQ results of the paper).
	SoftRealTime
	// NoGuarantee: the test cannot certify the workload.
	NoGuarantee
)

func (g Guarantee) String() string {
	switch g {
	case HardRealTime:
		return "hard"
	case SoftRealTime:
		return "soft (tardiness ≤ 1 quantum)"
	default:
		return "none"
	}
}

// Decision is the outcome of one scheduler's admission test.
type Decision struct {
	Scheduler string
	Admitted  bool
	Guarantee Guarantee
	Reason    string
}

// Total returns Σ wt as an exact rational, with validation.
func Total(ws []model.Weight) (rat.Rat, error) {
	u := rat.Zero
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			return rat.Zero, err
		}
		u = u.Add(w.Rat())
	}
	return u, nil
}

// PfairSFQ admits iff total utilization ≤ M — the exact feasibility
// condition, and PD² (or PF/PD) then meets every deadline (hard).
func PfairSFQ(ws []model.Weight, m int) Decision {
	u, err := Total(ws)
	if err != nil {
		return Decision{Scheduler: "PD2/SFQ", Reason: err.Error(), Guarantee: NoGuarantee}
	}
	if model.Feasible(u, m) {
		return Decision{Scheduler: "PD2/SFQ", Admitted: true, Guarantee: HardRealTime,
			Reason: fmt.Sprintf("Σwt = %s ≤ M = %d (Pfair feasibility, exact)", u, m)}
	}
	return Decision{Scheduler: "PD2/SFQ", Guarantee: NoGuarantee,
		Reason: fmt.Sprintf("Σwt = %s > M = %d", u, m)}
}

// PfairDVQ admits iff total utilization ≤ M; by Theorem 3 of the paper the
// guarantee is soft: tardiness at most one quantum.
func PfairDVQ(ws []model.Weight, m int) Decision {
	d := PfairSFQ(ws, m)
	d.Scheduler = "PD2/DVQ"
	if d.Admitted {
		d.Guarantee = SoftRealTime
		d.Reason += "; DVQ tardiness ≤ 1 quantum (Theorem 3)"
	}
	return d
}

// EPDF admits with a hard guarantee only on up to two processors (where
// EPDF is optimal); beyond that it reports no analytical guarantee.
func EPDF(ws []model.Weight, m int) Decision {
	u, err := Total(ws)
	if err != nil {
		return Decision{Scheduler: "EPDF", Reason: err.Error(), Guarantee: NoGuarantee}
	}
	if !model.Feasible(u, m) {
		return Decision{Scheduler: "EPDF", Guarantee: NoGuarantee,
			Reason: fmt.Sprintf("Σwt = %s > M = %d", u, m)}
	}
	if m <= 2 {
		return Decision{Scheduler: "EPDF", Admitted: true, Guarantee: HardRealTime,
			Reason: "EPDF is optimal on at most two processors"}
	}
	return Decision{Scheduler: "EPDF", Admitted: true, Guarantee: NoGuarantee,
		Reason: "EPDF is suboptimal beyond two processors; misses possible (see E14)"}
}

// PartitionedEDF admits iff first-fit-decreasing finds a partition with
// per-processor utilization ≤ 1 (then uniprocessor EDF is hard).
func PartitionedEDF(ws []model.Weight, m int) Decision {
	if _, err := Total(ws); err != nil {
		return Decision{Scheduler: "P-EDF", Reason: err.Error(), Guarantee: NoGuarantee}
	}
	if _, err := baseline.PartitionFFD(ws, m); err != nil {
		return Decision{Scheduler: "P-EDF", Guarantee: NoGuarantee, Reason: err.Error()}
	}
	return Decision{Scheduler: "P-EDF", Admitted: true, Guarantee: HardRealTime,
		Reason: "FFD partition with per-processor utilization ≤ 1"}
}

// PartitionedRM admits iff first-fit-decreasing under the Liu–Layland
// per-processor bound succeeds (then per-processor RM is hard).
func PartitionedRM(ws []model.Weight, m int) Decision {
	if _, err := Total(ws); err != nil {
		return Decision{Scheduler: "P-RM", Reason: err.Error(), Guarantee: NoGuarantee}
	}
	if _, err := baseline.PartitionFFDRM(ws, m); err != nil {
		return Decision{Scheduler: "P-RM", Guarantee: NoGuarantee, Reason: err.Error()}
	}
	return Decision{Scheduler: "P-RM", Admitted: true, Guarantee: HardRealTime,
		Reason: "FFD partition within the Liu–Layland bound"}
}

// WithOverhead re-runs a test with execution costs inflated by the given
// preemption/migration overhead (Sec. 3 of the paper: such costs are folded
// into execution costs). The returned decision is for the inflated set.
func WithOverhead(test func([]model.Weight, int) Decision, ws []model.Weight, m int, overhead rat.Rat) Decision {
	inflated, err := inflate(ws, overhead)
	if err != nil {
		return Decision{Scheduler: "overhead", Guarantee: NoGuarantee, Reason: err.Error()}
	}
	d := test(inflated, m)
	d.Reason = fmt.Sprintf("with %s overhead folded in: %s", overhead, d.Reason)
	return d
}

func inflate(ws []model.Weight, overhead rat.Rat) ([]model.Weight, error) {
	if overhead.Sign() < 0 {
		return nil, fmt.Errorf("admission: negative overhead")
	}
	factor := rat.One.Add(overhead)
	out := make([]model.Weight, len(ws))
	for i, w := range ws {
		e := factor.Mul(rat.FromInt(w.E)).Ceil()
		if e > w.P {
			return nil, fmt.Errorf("admission: weight %s exceeds 1 after %s overhead", w, overhead)
		}
		out[i] = model.W(e, w.P)
	}
	return out, nil
}

// All runs every admission test and returns the decisions, Pfair first.
func All(ws []model.Weight, m int) []Decision {
	return []Decision{
		PfairSFQ(ws, m),
		PfairDVQ(ws, m),
		EPDF(ws, m),
		PartitionedEDF(ws, m),
		PartitionedRM(ws, m),
	}
}
