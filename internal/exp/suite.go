package exp

import "fmt"

// Experiment is one entry of the E-suite (DESIGN.md §3): an id and the run
// that produces what every driver shows for it. cmd/experiments prints the
// table and writes the rows with WriteCSV; cmd/report embeds the table.
type Experiment struct {
	ID string
	// Run returns the printed table and the typed rows behind it, a slice
	// of flat structs.
	Run func(seed int64, trials int) (table string, rows any, err error)
}

// entry builds an Experiment from its four parts: id, header (title line,
// then column line), the sweep, and the formatter of one row.
func entry[P any](id, header string, run func(seed int64, trials int) ([]P, error), row func(P) string) Experiment {
	return Experiment{ID: id, Run: func(seed int64, trials int) (string, any, error) {
		pts, err := run(seed, trials)
		if err != nil {
			return "", nil, err
		}
		rows := make([]string, len(pts))
		for i, p := range pts {
			rows[i] = row(p)
		}
		return Table(header, rows), pts, nil
	}}
}

// one adapts an experiment that yields a single point to a one-row sweep.
func one[P any](run func(seed int64, trials int) (P, error)) func(int64, int) ([]P, error) {
	return func(seed int64, trials int) ([]P, error) {
		p, err := run(seed, trials)
		return []P{p}, err
	}
}

func boundRow(p BoundPoint) string {
	return fmt.Sprintf("%-3d %-12s %-7d %-9d %-7d %-10s %s",
		p.M, p.YieldModel, p.Trials, p.Subtasks, p.Misses, p.MaxTardiness, Bool(p.BoundHolds))
}

// Suite returns the experiments in the order `experiments all` prints them:
// by number, except E12 — the paper's future work — which goes last.
func Suite() []Experiment {
	return []Experiment{
		entry("e1", "E1  tightness of Theorem 3 on the Fig. 2 construction\nδ        max tardiness",
			func(int64, int) ([]TightnessPoint, error) { return E1Tightness(DefaultDeltas()) },
			func(p TightnessPoint) string { return fmt.Sprintf("%-8s %-12s %s", p.Delta, p.MaxTardiness, "= 1-δ") }),
		entry("e2", "E2  PD²-DVQ tardiness ≤ 1 (Theorem 3) at scale\nM   yield        trials  subtasks  misses  max-tard   bound-holds",
			func(seed int64, trials int) ([]BoundPoint, error) {
				return E2DVQTardiness(seed, trials, []int{2, 4, 8})
			},
			boundRow),
		entry("e3", "E3  SFQ optimality anchor (PF/PD/PD² must have 0 misses)\npol   trials  subtasks  misses",
			E3SFQOptimality,
			func(p OptimalityPoint) string {
				return fmt.Sprintf("%-5s %-7d %-9d %d", p.Policy, p.Trials, p.Subtasks, p.Misses)
			}),
		entry("e4", "E4  PD^B tardiness ≤ 1 (Theorem 2) at scale\nM   yield        trials  subtasks  misses  max-tard   bound-holds",
			func(seed int64, trials int) ([]BoundPoint, error) {
				return E4PDBTardiness(seed, trials, []int{2, 4, 8})
			},
			boundRow),
		entry("e5", "E5  S_DQ → S_B transform (Lemmas 3–5)\ntrials aligned olapped free  max-S_DQ-tard max-S_B-tard lemmas-hold",
			one(E5Transform),
			func(p TransformPoint) string {
				return fmt.Sprintf("%-6d %-7d %-7d %-5d %-13s %-12s %s",
					p.Trials, p.Aligned, p.Olapped, p.Free, p.MaxSDQTardiness, p.MaxSBTardiness, Bool(p.AllLemmasHold))
			}),
		entry("e6", "E6  priority inversions and Property PB (Lemma 1)\ntrials elig-blocked pred-blocked property-holds",
			one(E6PropertyPB),
			func(p PBPoint) string {
				return fmt.Sprintf("%-6d %-12d %-12d %s", p.Trials, p.EligibilityEvents, p.PredecessorEvents, Bool(p.PropertyHolds))
			}),
		entry("e7", "E7  work-conservation gain of the DVQ model (M=4)\npFull%  residue/quant  SFQ/DVQ-ms  respSFQ   respDVQ   tardSFQ   tardDVQ",
			func(seed int64, trials int) ([]ReclaimPoint, error) { return E7Reclamation(seed, trials, 4) },
			func(p ReclaimPoint) string {
				return fmt.Sprintf("%-6d %-13.3f %-10.3f %-9.3f %-9.3f %-9s %s",
					p.FullProb, p.ResidueFrac, p.MakespanGain, p.SFQ.MeanResponse, p.DVQ.MeanResponse,
					p.SFQ.MaxTardiness, p.DVQ.MaxTardiness)
			}),
		entry("e8", "E8  EPDF: DVQ worsens tardiness by at most one quantum\nM   trials  max-SFQ   max-DVQ   Δ≤1",
			func(seed int64, trials int) ([]EPDFPoint, error) { return E8EPDF(seed, trials, []int{2, 4, 8}) },
			func(p EPDFPoint) string {
				return fmt.Sprintf("%-3d %-7d %-9s %-9s %s", p.M, p.Trials, p.MaxSFQ, p.MaxDVQ, Bool(p.DeltaAtMost1))
			}),
		entry("e9", "E9  staggered quanta (Holman–Anderson): burst M → 1, tardiness ≤ 1\nM   trials  max-tard   aligned-burst staggered-burst",
			func(seed int64, trials int) ([]StaggerPoint, error) { return E9Staggered(seed, trials, []int{2, 4, 8}) },
			func(p StaggerPoint) string {
				return fmt.Sprintf("%-3d %-7d %-10s %-13d %d", p.M, p.Trials, p.MaxTardiness, p.AlignedBurst, p.StaggeredBurst)
			}),
		entry("e10", "E10  utilization bound: partitioned/global EDF+RM vs PD² (M=4, heavy tasks)\nutil%  trials  part-EDF-ok   part-RM-ok    gEDF-miss   gRM-miss   PD²-miss",
			func(seed int64, trials int) ([]UtilPoint, error) { return E10UtilizationBound(seed, trials, 4) },
			func(p UtilPoint) string {
				return fmt.Sprintf("%-6d %-7d %-13d %-13d %-11d %-10d %d",
					p.UtilPct, p.Trials, p.PartitionOK, p.PartitionRMOK, p.GEDFMissTrials, p.GRMMissTrials, p.PfairMissTrials)
			}),
		entry("e11", "E11  k-compliance induction (Lemma 6)\ntrials total-k max-PD^B-tard all-valid",
			one(E11Compliance),
			func(p CompliancePoint) string {
				return fmt.Sprintf("%-6d %-7d %-13s %s", p.Trials, p.TotalK, p.MaxPDBTard, Bool(p.AllValid))
			}),
		entry("e13", "E13  early releasing vs DFS's auxiliary scheduler (M=4)\nutil%  trials  plain-slack  ER-slack   DFS-aux   ER-misses",
			func(seed int64, trials int) ([]ERPoint, error) { return E13EarlyRelease(seed, trials, 4) },
			func(p ERPoint) string {
				return fmt.Sprintf("%-6d %-7d %-12.3f %-10.3f %-9d %d",
					p.UtilPct, p.Trials, p.PlainSlack, p.ERSlack, p.DFSAux, p.ERMisses)
			}),
		entry("e14", "E14  PD² tie-break ablation under SFQ (heavy tasks, M∈{3..5})\npolicy   trials  miss-trials  misses  max-tard",
			E14TieBreakAblation,
			func(p AblationPoint) string {
				return fmt.Sprintf("%-8s %-7d %-12d %-7d %s", p.Policy, p.Trials, p.MissTrials, p.Misses, p.MaxTardiness)
			}),
		entry("e15", "E15  unsynchronized timer interrupts: drifting SFQ vs DVQ (M=4)\nε       trials  tard-short  tard-long   tard-DVQ  DVQ≤1",
			func(seed int64, trials int) ([]DriftPoint, error) { return E15ClockDrift(seed, trials, 4) },
			func(p DriftPoint) string {
				eps := "0"
				if p.EpsDen > 0 {
					eps = fmt.Sprintf("1/%d", p.EpsDen)
				}
				return fmt.Sprintf("%-7s %-7d %-11s %-11s %-9s %s",
					eps, p.Trials, p.TardShort, p.TardLong, p.TardDVQ, Bool(p.DVQBoundHolds))
			}),
		entry("e16", "E16  quantum-size selection for a real workload (M=1, 20µs overhead)\nQ(µs)  utilization  feasible  PD²-misses",
			func(int64, int) ([]QuantumPoint, error) { return E16QuantumSize(1, 20) },
			func(p QuantumPoint) string {
				miss := "-"
				if p.Misses >= 0 {
					miss = fmt.Sprintf("%d", p.Misses)
				}
				return fmt.Sprintf("%-6d %-12s %-9s %s", p.Q, p.Utilization, Bool(p.Feasible), miss)
			}),
		entry("e17", "E17  feasibility is necessary: PD²-DVQ past Σwt = M (M=4)\nutil%  trials  tard-short  tard-long",
			func(seed int64, trials int) ([]OverloadPoint, error) { return E17Overload(seed, trials, 4) },
			func(p OverloadPoint) string {
				return fmt.Sprintf("%-6d %-7d %-11s %s", p.UtilPct, p.Trials, p.TardShort, p.TardLong)
			}),
		entry("e18", "E18  policy matrix under DVQ (M=2, uniform yields)\npol   trials  subtasks  misses  max-tard   mean-resp",
			func(seed int64, trials int) ([]PolicyPoint, error) { return E18PolicyMatrix(seed, trials, 2) },
			func(p PolicyPoint) string {
				return fmt.Sprintf("%-5s %-7d %-9d %-7d %-10s %.3f",
					p.Policy, p.Trials, p.Subtasks, p.Misses, p.MaxTardiness, p.MeanResponse)
			}),
		entry("e19", "E19  replicated tightness construction across M (δ=1/8)\nM   max-tard   =1-δ",
			func(int64, int) ([]TightnessByMPoint, error) {
				return E19TightnessByM(DefaultDeltas()[2], []int{2, 4, 6, 8, 12, 16})
			},
			func(p TightnessByMPoint) string {
				return fmt.Sprintf("%-3d %-10s %s", p.M, p.MaxTardiness, Bool(p.EqualsOneMinusDelta))
			}),
		entry("e20", "E20  IS/GIS dynamics sensitivity under PD²-DVQ (M=4, adversarial yields)\njitter%  omit%  trials  subtasks  misses  max-tard   blocking",
			func(seed int64, trials int) ([]DynamicsPoint, error) { return E20Dynamics(seed, trials, 4) },
			func(p DynamicsPoint) string {
				return fmt.Sprintf("%-8d %-6d %-7d %-9d %-7d %-10s %d",
					p.JitterPct, p.OmitPct, p.Trials, p.Subtasks, p.Misses, p.MaxTardiness, p.Blocking)
			}),
		entry("e12", "E12  fractional execution costs (paper's future work)\ntrials max-DVQ-tard SFQ-stranded bound-holds",
			one(E12FractionalCosts),
			func(p FracCostPoint) string {
				return fmt.Sprintf("%-6d %-12s %-12.1f %s", p.Trials, p.MaxTardiness, p.SFQResidue, Bool(p.BoundHolds))
			}),
	}
}
