package exp

import (
	"math/rand"
	"strings"

	"desyncpfair/internal/analysis"
	"desyncpfair/internal/baseline"
	"desyncpfair/internal/core"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
	"desyncpfair/internal/sfq"
)

// randomSystem draws one random feasible GIS system at full utilization m,
// with optional IS jitter and GIS omissions, from rng.
func randomSystem(rng *rand.Rand, m int, dynamics bool) *model.System {
	q := int64(6 + rng.Intn(8))
	n := m + 1 + rng.Intn(2*m)
	for int64(n) > int64(m)*q {
		n--
	}
	var ws []model.Weight
	if rng.Intn(3) == 0 {
		// UUniFast draws: heavy-tailed spreads typical of the literature.
		ws = gen.UUniFastGrid(rng, n, q, int64(m)*q)
	} else {
		ws = gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(rng.Intn(3)))
	}
	opts := gen.SystemOptions{Horizon: 3 * q}
	if dynamics {
		opts.JitterProb = rng.Intn(30)
		opts.MaxJitter = 2
		opts.OmitProb = rng.Intn(20)
	}
	return gen.System(rng, ws, opts)
}

// yieldFor rotates through the experiment yield models.
func yieldFor(kind int, seed int64) (string, sched.YieldFn) {
	switch kind % 4 {
	case 0:
		return "full", sched.FullCost
	case 1:
		return "uniform", gen.UniformYield(seed, 8)
	case 2:
		return "bimodal", gen.BimodalYield(seed, 60, 8)
	default:
		return "adversarial", gen.AdversarialYield(rat.New(1, 16), nil)
	}
}

// --- E1: tightness of the Theorem 3 bound -------------------------------

// TightnessPoint is one δ in the E1 sweep on the Fig. 2 task set.
type TightnessPoint struct {
	Delta        rat.Rat
	MaxTardiness rat.Rat
}

// E1Tightness sweeps δ → 0 on the Fig. 2 construction: max tardiness is
// exactly 1−δ, showing the bound of Theorem 3 is tight (approached but
// never reached). The δ points are independent simulations and run in
// parallel (Sweep).
func E1Tightness(deltas []rat.Rat) ([]TightnessPoint, error) {
	return Sweep(Workers, deltas, func(d rat.Rat) (TightnessPoint, error) {
		s, err := core.RunDVQ(Fig2System(), core.DVQOptions{M: 2, Yield: Fig2Yield(d)})
		if err != nil {
			return TightnessPoint{}, err
		}
		return TightnessPoint{Delta: d, MaxTardiness: s.MaxTardiness()}, nil
	})
}

// DefaultDeltas is the E1 sweep: δ = 1/2, 1/4, …, 1/1024.
func DefaultDeltas() []rat.Rat {
	var ds []rat.Rat
	for d := int64(2); d <= 1024; d *= 2 {
		ds = append(ds, rat.New(1, d))
	}
	return ds
}

// --- E2/E4: tardiness bounds at scale ------------------------------------

// BoundPoint aggregates one (M, yield-model) cell of a tardiness-bound
// validation.
type BoundPoint struct {
	M            int
	YieldModel   string
	Trials       int
	Subtasks     int
	Misses       int
	MaxTardiness rat.Rat
	BoundHolds   bool // max tardiness ≤ 1 across all trials
}

// E2DVQTardiness validates Theorem 3 at scale: PD²-DVQ over random feasible
// GIS systems and all yield models, per processor count.
func E2DVQTardiness(seed int64, trials int, ms []int) ([]BoundPoint, error) {
	return boundSweep(seed, trials, ms, func(sys *model.System, m int, y sched.YieldFn) (*sched.Schedule, error) {
		return core.RunDVQ(sys, core.DVQOptions{M: m, Yield: y})
	})
}

// E4PDBTardiness validates Theorem 2 at scale: PD^B over the same space.
func E4PDBTardiness(seed int64, trials int, ms []int) ([]BoundPoint, error) {
	return boundSweep(seed, trials, ms, func(sys *model.System, m int, y sched.YieldFn) (*sched.Schedule, error) {
		res, err := core.RunPDB(sys, core.PDBOptions{M: m, Yield: y})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	})
}

// boundSweep runs one engine over every (M, yield-model) cell. Each cell
// seeds its own RNG from (seed, m, kind) alone, so the cells are
// independent and Sweep runs them in parallel with results identical to
// the serial loop.
func boundSweep(seed int64, trials int, ms []int, run func(*model.System, int, sched.YieldFn) (*sched.Schedule, error)) ([]BoundPoint, error) {
	type cell struct{ m, kind int }
	var cells []cell
	for _, m := range ms {
		for kind := 0; kind < 4; kind++ {
			cells = append(cells, cell{m, kind})
		}
	}
	return Sweep(Workers, cells, func(c cell) (BoundPoint, error) {
		rng := rand.New(rand.NewSource(seed + int64(c.m*4+c.kind)))
		name, _ := yieldFor(c.kind, 0)
		pt := BoundPoint{M: c.m, YieldModel: name, BoundHolds: true, MaxTardiness: rat.Zero}
		for trial := 0; trial < trials; trial++ {
			sys := randomSystem(rng, c.m, true)
			_, y := yieldFor(c.kind, seed+int64(trial))
			s, err := run(sys, c.m, y)
			if err != nil {
				return pt, err
			}
			pt.Trials++
			pt.Subtasks += s.Len()
			pt.Misses += s.MissCount()
			pt.MaxTardiness = rat.Max(pt.MaxTardiness, s.MaxTardiness())
			if rat.One.Less(s.MaxTardiness()) {
				pt.BoundHolds = false
			}
		}
		return pt, nil
	})
}

// --- E3: PD² optimality anchor -------------------------------------------

// OptimalityPoint is one policy row of E3.
type OptimalityPoint struct {
	Policy   string
	Trials   int
	Subtasks int
	Misses   int
}

// E3SFQOptimality verifies that the optimal policies (PF, PD, PD²) miss no
// deadlines under the SFQ model on random feasible systems, and reports
// EPDF (suboptimal beyond two processors) alongside.
func E3SFQOptimality(seed int64, trials int) ([]OptimalityPoint, error) {
	// Every policy replays the same seed-derived system sequence, so the
	// policy rows are independent cells and sweep in parallel.
	return Sweep(Workers, prio.All(), func(pol prio.Policy) (OptimalityPoint, error) {
		rng := rand.New(rand.NewSource(seed))
		pt := OptimalityPoint{Policy: pol.Name()}
		for trial := 0; trial < trials; trial++ {
			m := 2 + rng.Intn(3)
			sys := randomSystem(rng, m, true)
			s, err := sfq.Run(sys, sfq.Options{M: m, Policy: pol})
			if err != nil {
				return pt, err
			}
			pt.Trials++
			pt.Subtasks += s.Len()
			pt.Misses += s.MissCount()
		}
		return pt, nil
	})
}

// --- E5: the S_DQ → S_B transform ----------------------------------------

// TransformPoint aggregates E5.
type TransformPoint struct {
	Trials          int
	Aligned         int
	Olapped         int
	Free            int
	MaxSDQTardiness rat.Rat
	MaxSBTardiness  rat.Rat
	AllLemmasHold   bool
}

// E5Transform builds S_B for random DVQ schedules and checks Lemmas 3, 4
// and the S_B structure (Lemma 5).
func E5Transform(seed int64, trials int) (TransformPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	pt := TransformPoint{AllLemmasHold: true, MaxSDQTardiness: rat.Zero, MaxSBTardiness: rat.Zero}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(3)
		sys := randomSystem(rng, m, true)
		_, y := yieldFor(1+trial%3, seed+int64(trial))
		dq, err := core.RunDVQ(sys, core.DVQOptions{M: m, Yield: y})
		if err != nil {
			return pt, err
		}
		tr := core.BuildSB(dq)
		a, o, f := tr.CountByClass()
		pt.Trials++
		pt.Aligned += a
		pt.Olapped += o
		pt.Free += f
		pt.MaxSDQTardiness = rat.Max(pt.MaxSDQTardiness, dq.MaxTardiness())
		pt.MaxSBTardiness = rat.Max(pt.MaxSBTardiness, tr.MaxTardinessB())
		if tr.CheckLemma3() != nil || tr.CheckLemma4() != nil || tr.CheckSBStructure() != nil {
			pt.AllLemmasHold = false
		}
	}
	return pt, nil
}

// --- E6: Property PB ------------------------------------------------------

// PBPoint aggregates E6.
type PBPoint struct {
	Trials            int
	EligibilityEvents int
	PredecessorEvents int
	PropertyHolds     bool
}

// E6PropertyPB counts priority inversions in random PD²-DVQ schedules
// (including the engineered Fig. 3 scenario) and verifies Lemma 1 on every
// schedule.
func E6PropertyPB(seed int64, trials int) (PBPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	pt := PBPoint{PropertyHolds: true}
	check := func(dq *sched.Schedule) {
		st := core.CountBlocking(dq, prio.PD2{})
		pt.Trials++
		pt.EligibilityEvents += st.Eligibility
		pt.PredecessorEvents += st.Predecessor
		if core.CheckPropertyPB(dq, prio.PD2{}) != nil {
			pt.PropertyHolds = false
		}
	}
	// The engineered predecessor-blocking scenario first.
	dq, err := core.RunDVQ(Fig3System(5), core.DVQOptions{M: 3, Yield: Fig3Yield(rat.New(1, 4))})
	if err != nil {
		return pt, err
	}
	check(dq)
	for trial := 1; trial < trials; trial++ {
		m := 2 + rng.Intn(3)
		sys := randomSystem(rng, m, true)
		_, y := yieldFor(1+trial%3, seed+int64(trial))
		dq, err := core.RunDVQ(sys, core.DVQOptions{M: m, Yield: y})
		if err != nil {
			return pt, err
		}
		check(dq)
	}
	return pt, nil
}

// --- E7: work-conservation gain ------------------------------------------

// ReclaimPoint is one mean-cost level of the E7 sweep.
type ReclaimPoint struct {
	FullProb     int // percent of subtasks using their whole quantum
	SFQ, DVQ     analysis.Summary
	ResidueFrac  float64 // SFQ residue / total allocated quanta
	MakespanGain float64 // SFQ makespan / DVQ makespan
}

// E7Reclamation quantifies the paper's motivating claim: early-completing
// quanta strand processor time under SFQ, which the DVQ model reclaims.
// The sweep varies the fraction of subtasks that use their full quantum.
func E7Reclamation(seed int64, trials int, m int) ([]ReclaimPoint, error) {
	// One cell per mean-cost level, each with its own (seed, pFull) RNG.
	return Sweep(Workers, []int{100, 80, 60, 40, 20}, func(pFull int) (ReclaimPoint, error) {
		rng := rand.New(rand.NewSource(seed + int64(pFull)))
		var pt ReclaimPoint
		pt.FullProb = pFull
		var sfqResidue, sfqQuanta, sfqMakespan, dvqMakespan, sfqResp, dvqResp float64
		for trial := 0; trial < trials; trial++ {
			sys := randomSystem(rng, m, false)
			y := gen.BimodalYield(seed+int64(trial), pFull, 8)
			ss, err := sfq.Run(sys, sfq.Options{M: m, Yield: y})
			if err != nil {
				return pt, err
			}
			ds, err := core.RunDVQ(sys, core.DVQOptions{M: m, Yield: y})
			if err != nil {
				return pt, err
			}
			sumS, sumD := analysis.Summarize(ss), analysis.Summarize(ds)
			pt.SFQ.Subtasks += sumS.Subtasks
			pt.DVQ.Subtasks += sumD.Subtasks
			pt.SFQ.Misses += sumS.Misses
			pt.DVQ.Misses += sumD.Misses
			pt.SFQ.MaxTardiness = rat.Max(pt.SFQ.MaxTardiness, sumS.MaxTardiness)
			pt.DVQ.MaxTardiness = rat.Max(pt.DVQ.MaxTardiness, sumD.MaxTardiness)
			sfqResidue += sumS.Residue.Float64()
			sfqQuanta += float64(sumS.Subtasks)
			sfqMakespan += sumS.Makespan.Float64()
			dvqMakespan += sumD.Makespan.Float64()
			sfqResp += sumS.MeanResponse
			dvqResp += sumD.MeanResponse
		}
		if sfqQuanta > 0 {
			pt.ResidueFrac = sfqResidue / sfqQuanta
		}
		if dvqMakespan > 0 {
			pt.MakespanGain = sfqMakespan / dvqMakespan
		}
		pt.SFQ.MeanResponse = sfqResp / float64(trials)
		pt.DVQ.MeanResponse = dvqResp / float64(trials)
		return pt, nil
	})
}

// --- E8: suboptimal policies under DVQ -----------------------------------

// EPDFPoint is one processor count of E8.
type EPDFPoint struct {
	M            int
	Trials       int
	MaxSFQ       rat.Rat // max EPDF tardiness under SFQ
	MaxDVQ       rat.Rat // max EPDF tardiness under DVQ
	DeltaAtMost1 bool    // DVQ − SFQ ≤ 1 on every trial (paper's remark)
}

// E8EPDF measures how the DVQ model worsens EPDF — the suboptimal Pfair
// policy — versus its SFQ behaviour: by at most one quantum.
func E8EPDF(seed int64, trials int, ms []int) ([]EPDFPoint, error) {
	// One cell per processor count, each with its own (seed, m) RNG.
	return Sweep(Workers, ms, func(m int) (EPDFPoint, error) {
		rng := rand.New(rand.NewSource(seed + int64(m)))
		pt := EPDFPoint{M: m, DeltaAtMost1: true, MaxSFQ: rat.Zero, MaxDVQ: rat.Zero}
		for trial := 0; trial < trials; trial++ {
			sys := randomSystem(rng, m, false)
			_, y := yieldFor(1+trial%3, seed+int64(trial))
			ss, err := sfq.Run(sys, sfq.Options{M: m, Policy: prio.EPDF{}})
			if err != nil {
				return pt, err
			}
			ds, err := core.RunDVQ(sys, core.DVQOptions{M: m, Policy: prio.EPDF{}, Yield: y})
			if err != nil {
				return pt, err
			}
			pt.Trials++
			pt.MaxSFQ = rat.Max(pt.MaxSFQ, ss.MaxTardiness())
			pt.MaxDVQ = rat.Max(pt.MaxDVQ, ds.MaxTardiness())
			if rat.One.Less(ds.MaxTardiness().Sub(ss.MaxTardiness())) {
				pt.DeltaAtMost1 = false
			}
		}
		return pt, nil
	})
}

// --- E9: the staggered model ----------------------------------------------

// StaggerPoint is one processor count of E9.
type StaggerPoint struct {
	M            int
	Trials       int
	MaxTardiness rat.Rat
	// MaxBurst is the largest number of scheduling decisions made at one
	// instant — M for aligned SFQ, 1 for staggered quanta (the property
	// Holman & Anderson stagger for).
	AlignedBurst, StaggeredBurst int
}

// E9Staggered compares aligned and staggered quanta: tardiness stays within
// one quantum while the per-instant decision burst drops from M to 1.
func E9Staggered(seed int64, trials int, ms []int) ([]StaggerPoint, error) {
	// One cell per processor count, each with its own (seed, m) RNG.
	return Sweep(Workers, ms, func(m int) (StaggerPoint, error) {
		rng := rand.New(rand.NewSource(seed + int64(m)))
		pt := StaggerPoint{M: m, MaxTardiness: rat.Zero}
		for trial := 0; trial < trials; trial++ {
			sys := randomSystem(rng, m, false)
			al, err := sfq.Run(sys, sfq.Options{M: m})
			if err != nil {
				return pt, err
			}
			st, err := sfq.Run(sys, sfq.Options{M: m, Staggered: true})
			if err != nil {
				return pt, err
			}
			pt.Trials++
			pt.MaxTardiness = rat.Max(pt.MaxTardiness, st.MaxTardiness())
			if b := maxBurst(al); b > pt.AlignedBurst {
				pt.AlignedBurst = b
			}
			if b := maxBurst(st); b > pt.StaggeredBurst {
				pt.StaggeredBurst = b
			}
		}
		return pt, nil
	})
}

func maxBurst(s *sched.Schedule) int {
	counts := map[rat.Rat]int{}
	best := 0
	for _, a := range s.Assignments() {
		counts[a.Start]++
		if counts[a.Start] > best {
			best = counts[a.Start]
		}
	}
	return best
}

// --- E10: the utilization-bound comparison --------------------------------

// UtilPoint is one utilization level of E10.
type UtilPoint struct {
	UtilPct         int // total utilization as a percentage of M
	Trials          int
	PartitionOK     int // trials where FFD partitioning (EDF bins) succeeded
	PartitionRMOK   int // trials where Liu–Layland RM partitioning succeeded
	GEDFMissTrials  int // trials where global EDF missed a deadline
	GRMMissTrials   int // trials where global RM missed a deadline
	PfairMissTrials int // trials where PD² (SFQ) missed — always 0
}

// E10UtilizationBound sweeps total utilization from 55% to 100% of M and
// compares: partitioned EDF (fails to partition beyond ~50% with heavy
// tasks), global EDF (Dhall-style misses), and PD² (schedules everything).
func E10UtilizationBound(seed int64, trials, m int) ([]UtilPoint, error) {
	q := int64(20)
	// One cell per utilization level, each with its own (seed, pct) RNG.
	return Sweep(Workers, []int{55, 65, 75, 85, 95, 100}, func(pct int) (UtilPoint, error) {
		rng := rand.New(rand.NewSource(seed + int64(pct)))
		pt := UtilPoint{UtilPct: pct}
		for trial := 0; trial < trials; trial++ {
			sum := int64(m) * q * int64(pct) / 100
			n := m + 1 + rng.Intn(m)
			for int64(n) > sum {
				n--
			}
			// Heavy-leaning weights expose the partitioning cap.
			ws := gen.GridWeights(rng, n, q, sum, gen.HeavyWeights)
			pt.Trials++
			if _, err := baseline.PartitionFFD(ws, m); err == nil {
				pt.PartitionOK++
			}
			if _, err := baseline.PartitionFFDRM(ws, m); err == nil {
				pt.PartitionRMOK++
			}
			if r := baseline.GlobalEDF(ws, m, 3*q); r.Misses > 0 {
				pt.GEDFMissTrials++
			}
			if r := baseline.GlobalRM(ws, m, 3*q); r.Misses > 0 {
				pt.GRMMissTrials++
			}
			sys := model.Periodic(ws, 3*q)
			s, err := sfq.Run(sys, sfq.Options{M: m})
			if err != nil {
				return pt, err
			}
			if s.MissCount() > 0 {
				pt.PfairMissTrials++
			}
		}
		return pt, nil
	})
}

// --- E11: the k-compliance induction ---------------------------------------

// CompliancePoint aggregates E11.
type CompliancePoint struct {
	Trials     int
	TotalK     int // total k values checked (Σ n+1)
	AllValid   bool
	MaxPDBTard rat.Rat
}

// E11Compliance runs the full Lemma 6 induction on random systems.
func E11Compliance(seed int64, trials int) (CompliancePoint, error) {
	rng := rand.New(rand.NewSource(seed))
	pt := CompliancePoint{AllValid: true, MaxPDBTard: rat.Zero}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(2)
		sys := randomSystem(rng, m, true)
		pdb, err := core.RunPDB(sys, core.PDBOptions{M: m})
		if err != nil {
			return pt, err
		}
		pt.Trials++
		pt.TotalK += sys.NumSubtasks() + 1
		pt.MaxPDBTard = rat.Max(pt.MaxPDBTard, pdb.Schedule.MaxTardiness())
		if core.CheckLemma6(sys, pdb) != nil {
			pt.AllValid = false
		}
	}
	return pt, nil
}

// --- E12: fractional execution costs (the paper's future work) -------------

// FracCostPoint aggregates E12.
type FracCostPoint struct {
	Trials       int
	MaxTardiness rat.Rat
	SFQResidue   float64 // stranded time under SFQ for the same workload
	BoundHolds   bool
}

// E12FractionalCosts explores the extension flagged in the paper's
// conclusion: execution costs that are not integral multiples of the
// quantum. Each job's final subtask uses only part of its quantum
// (deterministically c = 1/2), modelling a job cost of e−1/2 quanta. Under
// DVQ the tail is reclaimed and tardiness stays within one quantum; under
// SFQ the tail of every job is stranded.
func E12FractionalCosts(seed int64, trials int) (FracCostPoint, error) {
	rng := rand.New(rand.NewSource(seed))
	pt := FracCostPoint{BoundHolds: true, MaxTardiness: rat.Zero}
	for trial := 0; trial < trials; trial++ {
		m := 2 + rng.Intn(3)
		sys := randomSystem(rng, m, false)
		y := func(s *model.Subtask) rat.Rat {
			if s.Index%s.Task.W.E == 0 { // last subtask of its job
				return rat.New(1, 2)
			}
			return rat.One
		}
		ds, err := core.RunDVQ(sys, core.DVQOptions{M: m, Yield: y})
		if err != nil {
			return pt, err
		}
		ss, err := sfq.Run(sys, sfq.Options{M: m, Yield: y})
		if err != nil {
			return pt, err
		}
		pt.Trials++
		pt.MaxTardiness = rat.Max(pt.MaxTardiness, ds.MaxTardiness())
		pt.SFQResidue += analysis.QuantumResidue(ss).Float64()
		if rat.One.Less(ds.MaxTardiness()) {
			pt.BoundHolds = false
		}
	}
	return pt, nil
}

// Table renders a header (title line, then column line), a rule and the
// preformatted rows: the shape of every table of the Suite.
func Table(header string, rows []string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("\n")
	b.WriteString(strings.Repeat("-", len(header)))
	b.WriteString("\n")
	for _, r := range rows {
		b.WriteString(r)
		b.WriteString("\n")
	}
	return b.String()
}

// Bool renders a pass/fail flag.
func Bool(b bool) string {
	if b {
		return "yes"
	}
	return "NO"
}
