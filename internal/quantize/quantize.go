// Package quantize maps real task parameters onto the Pfair quantum model.
//
// Pfair scheduling requires each task's execution cost and period to be
// expressed as integral multiples of the quantum size (Sec. 2 of the
// paper; relaxing the execution-cost half of this is the paper's stated
// future work). A real workload — execution times and periods in, say,
// microseconds — must therefore be quantized: for quantum size Q,
//
//	e(Q) = ⌈C/Q⌉   (costs round up: capacity must cover the work)
//	p(Q) = ⌊T/Q⌋   (periods round down: deadlines must not move later)
//
// Both roundings inflate utilization, and the inflation grows with Q; per-
// quantum scheduling overhead shrinks with Q. This package computes the
// inflated weights, the utilization curve over candidate quantum sizes,
// and the feasible/optimal choice of Q — the system-configuration decision
// every Pfair deployment (e.g. the LITMUS^RT implementations this line of
// work fed into) has to make.
package quantize

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// RealTask is a task with parameters in arbitrary but common time units
// (e.g. microseconds): worst-case execution time C per job and period T.
type RealTask struct {
	Name string
	C, T int64
}

// Validate checks 0 < C ≤ T.
func (rt RealTask) Validate() error {
	if rt.C <= 0 || rt.T <= 0 {
		return fmt.Errorf("quantize: %s has non-positive parameters", rt.Name)
	}
	if rt.C > rt.T {
		return fmt.Errorf("quantize: %s has C = %d > T = %d", rt.Name, rt.C, rt.T)
	}
	return nil
}

// Weight quantizes one task for quantum size q (same unit as C and T),
// optionally inflating the cost with a per-quantum overhead (also in time
// units — context-switch plus scheduling cost charged to every quantum).
func Weight(rt RealTask, q, overhead int64) (model.Weight, error) {
	if err := rt.Validate(); err != nil {
		return model.Weight{}, err
	}
	if q <= 0 {
		return model.Weight{}, fmt.Errorf("quantize: quantum %d", q)
	}
	if overhead < 0 || overhead >= q {
		return model.Weight{}, fmt.Errorf("quantize: overhead %d outside [0, q)", overhead)
	}
	// Overhead shrinks the useful part of each quantum to q − overhead.
	e := rat.CeilDiv(rt.C, q-overhead)
	p := rat.FloorDiv(rt.T, q)
	if p < 1 {
		return model.Weight{}, fmt.Errorf("quantize: period %d shorter than quantum %d", rt.T, q)
	}
	if e > p {
		return model.Weight{}, fmt.Errorf("quantize: %s infeasible at Q=%d (e=%d > p=%d)", rt.Name, q, e, p)
	}
	return model.W(e, p), nil
}

// Weights quantizes a whole task set; it fails if any task is infeasible
// at this quantum size.
func Weights(rts []RealTask, q, overhead int64) ([]model.Weight, error) {
	out := make([]model.Weight, len(rts))
	for i, rt := range rts {
		w, err := Weight(rt, q, overhead)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// RealUtilization returns Σ C/T exactly — the lower bound no quantization
// can beat.
func RealUtilization(rts []RealTask) rat.Rat {
	u := rat.Zero
	for _, rt := range rts {
		u = u.Add(rat.New(rt.C, rt.T))
	}
	return u
}

// Point is one quantum size in a Curve.
type Point struct {
	Q           int64
	Utilization rat.Rat // Σ e(Q)/p(Q) after quantization + overhead
	Feasible    bool    // every task quantizable and utilization ≤ M
}

// Curve evaluates candidate quantum sizes for the task set on m
// processors. Infeasible candidates (some task unquantizable) are reported
// with zero utilization and Feasible = false.
func Curve(rts []RealTask, m int, overhead int64, candidates []int64) []Point {
	out := make([]Point, 0, len(candidates))
	for _, q := range candidates {
		pt := Point{Q: q}
		if ws, err := Weights(rts, q, overhead); err == nil {
			u := rat.Zero
			for _, w := range ws {
				u = u.Add(w.Rat())
			}
			pt.Utilization = u
			pt.Feasible = model.Feasible(u, m)
		}
		out = append(out, pt)
	}
	return out
}

// Best returns the largest feasible quantum size from candidates — the
// natural pick, since larger quanta mean fewer scheduler invocations and
// preemptions for the same guarantee. It returns an error when no
// candidate is feasible.
func Best(rts []RealTask, m int, overhead int64, candidates []int64) (int64, error) {
	best := int64(-1)
	for _, pt := range Curve(rts, m, overhead, candidates) {
		if pt.Feasible && pt.Q > best {
			best = pt.Q
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("quantize: no feasible quantum size among %v on M=%d", candidates, m)
	}
	return best, nil
}
