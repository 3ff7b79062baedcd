package exp

import (
	"math/rand"

	"desyncpfair/internal/core"
	"desyncpfair/internal/drift"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/quantize"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sfq"
)

// E15: the paper's first motivation, quantified. SFQ needs synchronized
// timer interrupts; with unsynchronized per-processor clocks the quantum
// supply falls below demand and tardiness grows with the horizon, while
// the DVQ model — which needs no quantum boundaries — keeps its
// one-quantum bound at any drift.

// DriftPoint is one drift magnitude of the E15 sweep.
type DriftPoint struct {
	EpsDen        int64 // ε = 1/EpsDen (0 means no drift)
	Trials        int
	TardShort     rat.Rat // max drifting-SFQ tardiness over a short horizon
	TardLong      rat.Rat // … over a 4× horizon: grows when ε > 0
	TardDVQ       rat.Rat // PD²-DVQ on the long horizon (same workload)
	DVQBoundHolds bool
}

// E15ClockDrift sweeps per-processor clock drift ε and compares
// unsynchronized SFQ against the DVQ model on full-utilization workloads.
func E15ClockDrift(seed int64, trials, m int) ([]DriftPoint, error) {
	var out []DriftPoint
	q := int64(12)
	for _, den := range []int64{0, 200, 50, 20} {
		rng := rand.New(rand.NewSource(seed + den))
		pt := DriftPoint{EpsDen: den, DVQBoundHolds: true,
			TardShort: rat.Zero, TardLong: rat.Zero, TardDVQ: rat.Zero}
		eps := make([]rat.Rat, m)
		for k := range eps {
			if den > 0 {
				eps[k] = rat.New(1, den)
			}
		}
		for trial := 0; trial < trials; trial++ {
			n := m + 1 + rng.Intn(m)
			ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
			run := func(h int64) (rat.Rat, rat.Rat, error) {
				sys := model.Periodic(ws, h)
				ds, err := drift.Run(sys, drift.Options{M: m, Epsilon: eps})
				if err != nil {
					return rat.Zero, rat.Zero, err
				}
				dv, err := core.RunDVQ(sys, core.DVQOptions{M: m})
				if err != nil {
					return rat.Zero, rat.Zero, err
				}
				return ds.MaxTardiness(), dv.MaxTardiness(), nil
			}
			tShort, _, err := run(2 * q)
			if err != nil {
				return nil, err
			}
			tLong, tDVQ, err := run(8 * q)
			if err != nil {
				return nil, err
			}
			pt.Trials++
			pt.TardShort = rat.Max(pt.TardShort, tShort)
			pt.TardLong = rat.Max(pt.TardLong, tLong)
			pt.TardDVQ = rat.Max(pt.TardDVQ, tDVQ)
			if rat.One.Less(tDVQ) {
				pt.DVQBoundHolds = false
			}
		}
		out = append(out, pt)
	}
	return out, nil
}

// E16: quantum-size selection. Pfair requires parameters in whole quanta
// (Sec. 2); quantizing a real workload inflates utilization as the quantum
// grows, while per-quantum overhead burns capacity as it shrinks —
// feasibility is not even monotone in Q. The experiment maps the tradeoff
// for a reference workload.

// QuantumPoint is one quantum size of the E16 sweep.
type QuantumPoint struct {
	Q           int64
	Utilization rat.Rat
	Feasible    bool
	Misses      int // PD² misses when simulated at this Q (−1 if infeasible)
}

// E16QuantumSize sweeps candidate quantum sizes for a reference media
// workload on m processors, with per-quantum overhead, and verifies by
// simulation that every feasible choice indeed yields zero misses.
func E16QuantumSize(m int, overhead int64) ([]QuantumPoint, error) {
	rts := []quantize.RealTask{
		{Name: "video0", C: 2700, T: 10000},
		{Name: "video1", C: 2700, T: 10000},
		{Name: "audio", C: 900, T: 5000},
		{Name: "ctrl", C: 850, T: 20000},
		{Name: "ui", C: 1300, T: 40000},
	}
	var out []QuantumPoint
	for _, pt := range quantize.Curve(rts, m, overhead, []int64{125, 250, 500, 1000, 2000, 4000}) {
		qp := QuantumPoint{Q: pt.Q, Utilization: pt.Utilization, Feasible: pt.Feasible, Misses: -1}
		if pt.Feasible {
			ws, err := quantize.Weights(rts, pt.Q, overhead)
			if err != nil {
				return nil, err
			}
			hyper := min(model.Periodic(ws, 0).Hyperperiod(), 4096) // keep the simulated horizon sane
			sys := model.Periodic(ws, 2*hyper)
			s, err := sfq.Run(sys, sfq.Options{M: m})
			if err != nil {
				return nil, err
			}
			qp.Misses = s.MissCount()
		}
		out = append(out, qp)
	}
	return out, nil
}

// E17: necessity of the feasibility precondition. Theorem 3's bound is
// conditioned on Σwt ≤ M; over that line no guarantee exists, and
// tardiness must grow without bound. The experiment overloads PD²-DVQ
// slightly and watches tardiness scale with the horizon.

// OverloadPoint is one utilization level of E17.
type OverloadPoint struct {
	UtilPct   int // total utilization as % of M (may exceed 100)
	Trials    int
	TardShort rat.Rat
	TardLong  rat.Rat // over a 4× horizon; grows iff UtilPct > 100
}

// E17Overload sweeps utilization through and past M on PD²-DVQ.
func E17Overload(seed int64, trials, m int) ([]OverloadPoint, error) {
	q := int64(20)
	var out []OverloadPoint
	for _, pct := range []int{100, 105, 115} {
		rng := rand.New(rand.NewSource(seed + int64(pct)))
		pt := OverloadPoint{UtilPct: pct, TardShort: rat.Zero, TardLong: rat.Zero}
		for trial := 0; trial < trials; trial++ {
			sum := int64(m) * q * int64(pct) / 100
			n := m + 1 + rng.Intn(m)
			for int64(n) > sum {
				n--
			}
			// Utilization above M requires more tasks than processors to
			// stay within per-task weight ≤ 1.
			for sum > int64(n)*q {
				n++
			}
			ws := gen.GridWeights(rng, n, q, sum, gen.MixedWeights)
			run := func(h int64) (rat.Rat, error) {
				sys := model.Periodic(ws, h)
				s, err := core.RunDVQ(sys, core.DVQOptions{M: m})
				if err != nil {
					return rat.Zero, err
				}
				return s.MaxTardiness(), nil
			}
			tShort, err := run(2 * q)
			if err != nil {
				return nil, err
			}
			tLong, err := run(8 * q)
			if err != nil {
				return nil, err
			}
			pt.Trials++
			pt.TardShort = rat.Max(pt.TardShort, tShort)
			pt.TardLong = rat.Max(pt.TardLong, tLong)
		}
		out = append(out, pt)
	}
	return out, nil
}
