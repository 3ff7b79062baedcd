// Benchmarks: one per figure and experiment of DESIGN.md §3 (the paper has
// no measurement tables; these regenerate its figures and validate its
// theorems), plus engine micro-benchmarks. Run with:
//
//	go test -bench=. -benchmem
package pfair_test

import (
	"fmt"
	"math/rand"
	"testing"

	pfair "desyncpfair"
	"desyncpfair/internal/exp"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// --- figures ---------------------------------------------------------------

func BenchmarkFig1Windows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := exp.Fig1(); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := exp.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Compliance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiments -------------------------------------------------------------

func BenchmarkE1Tightness(b *testing.B) {
	deltas := exp.DefaultDeltas()
	for i := 0; i < b.N; i++ {
		pts, err := exp.E1Tightness(deltas)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.MaxTardiness.Equal(rat.One.Sub(p.Delta)) {
				b.Fatalf("tightness broken at δ=%s", p.Delta)
			}
		}
	}
}

func BenchmarkE2DVQTardiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E2DVQTardiness(int64(i), 3, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.BoundHolds {
				b.Fatal("Theorem 3 bound violated")
			}
		}
	}
}

func BenchmarkE3SFQOptimal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E3SFQOptimality(int64(i), 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Policy != "EPDF" && p.Misses != 0 {
				b.Fatalf("%s missed", p.Policy)
			}
		}
	}
}

func BenchmarkE4PDBTardiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E4PDBTardiness(int64(i), 3, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.BoundHolds {
				b.Fatal("Theorem 2 bound violated")
			}
		}
	}
}

func BenchmarkE5Transform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := exp.E5Transform(int64(i), 4)
		if err != nil {
			b.Fatal(err)
		}
		if !pt.AllLemmasHold {
			b.Fatal("lemmas violated")
		}
	}
}

func BenchmarkE6PropertyPB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := exp.E6PropertyPB(int64(i), 4)
		if err != nil {
			b.Fatal(err)
		}
		if !pt.PropertyHolds {
			b.Fatal("Property PB violated")
		}
	}
}

func BenchmarkE7Reclamation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E7Reclamation(int64(i), 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8EPDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E8EPDF(int64(i), 3, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.DeltaAtMost1 {
				b.Fatal("EPDF gap > 1")
			}
		}
	}
}

func BenchmarkE9Staggered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E9Staggered(int64(i), 2, []int{2, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.StaggeredBurst != 1 {
				b.Fatal("stagger broken")
			}
		}
	}
}

func BenchmarkE10UtilBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E10UtilizationBound(int64(i), 3, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.PfairMissTrials != 0 {
				b.Fatal("PD² missed")
			}
		}
	}
}

func BenchmarkE11Compliance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := exp.E11Compliance(int64(i), 2)
		if err != nil {
			b.Fatal(err)
		}
		if !pt.AllValid {
			b.Fatal("Lemma 6 violated")
		}
	}
}

func BenchmarkE12FracCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := exp.E12FractionalCosts(int64(i), 3)
		if err != nil {
			b.Fatal(err)
		}
		if !pt.BoundHolds {
			b.Fatal("fractional bound violated")
		}
	}
}

// --- engine micro-benchmarks -------------------------------------------------

// benchSystem builds a deterministic full-utilization system with n tasks
// on m processors over the given horizon.
func benchSystem(m, n int, horizon int64) *pfair.System {
	rng := rand.New(rand.NewSource(99))
	q := int64(12)
	ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
	return model.Periodic(ws, horizon)
}

func BenchmarkSFQEngine(b *testing.B) {
	for _, cfg := range []struct{ m, n int }{{2, 6}, {4, 12}, {8, 24}, {16, 48}} {
		sys := benchSystem(cfg.m, cfg.n, 120)
		b.Run(fmt.Sprintf("M%d_N%d", cfg.m, cfg.n), func(b *testing.B) {
			b.ReportMetric(float64(sys.NumSubtasks()), "subtasks")
			for i := 0; i < b.N; i++ {
				s, err := pfair.RunSFQ(sys, pfair.SFQOptions{M: cfg.m})
				if err != nil {
					b.Fatal(err)
				}
				if s.MissCount() != 0 {
					b.Fatal("PD² missed")
				}
			}
		})
	}
}

func BenchmarkDVQEngine(b *testing.B) {
	for _, cfg := range []struct{ m, n int }{{2, 6}, {4, 12}, {8, 24}, {16, 48}} {
		sys := benchSystem(cfg.m, cfg.n, 120)
		y := pfair.UniformYield(5, 8)
		b.Run(fmt.Sprintf("M%d_N%d", cfg.m, cfg.n), func(b *testing.B) {
			b.ReportMetric(float64(sys.NumSubtasks()), "subtasks")
			for i := 0; i < b.N; i++ {
				s, err := pfair.RunDVQ(sys, pfair.DVQOptions{M: cfg.m, Yield: y})
				if err != nil {
					b.Fatal(err)
				}
				if rat.One.Less(s.MaxTardiness()) {
					b.Fatal("bound violated")
				}
			}
		})
	}
}

func BenchmarkPDBEngine(b *testing.B) {
	for _, cfg := range []struct{ m, n int }{{2, 6}, {4, 12}, {8, 24}} {
		sys := benchSystem(cfg.m, cfg.n, 120)
		b.Run(fmt.Sprintf("M%d_N%d", cfg.m, cfg.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pfair.RunPDB(sys, pfair.PDBOptions{M: cfg.m})
				if err != nil {
					b.Fatal(err)
				}
				if rat.One.Less(res.Schedule.MaxTardiness()) {
					b.Fatal("bound violated")
				}
			}
		})
	}
}

// benchSystemQ is benchSystem with an explicit weight grid q, needed for
// task counts that exceed the default grid's minimum-weight capacity
// (GridWeights requires n ≤ m·q).
func benchSystemQ(m, n int, q, horizon int64) *pfair.System {
	rng := rand.New(rand.NewSource(99))
	ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
	return model.Periodic(ws, horizon)
}

// BenchmarkDVQLarge measures the DVQ engine on large full-utilization
// systems (≥ 64 tasks); the M=16 row is the headline configuration for the
// fast-path scheduling core. Run with -benchmem to see per-run allocations.
func BenchmarkDVQLarge(b *testing.B) {
	for _, cfg := range []struct {
		m, n int
		q    int64
	}{{4, 64, 20}, {16, 64, 12}, {16, 128, 12}} {
		sys := benchSystemQ(cfg.m, cfg.n, cfg.q, 60)
		y := pfair.UniformYield(5, 8)
		b.Run(fmt.Sprintf("M%d_N%d", cfg.m, cfg.n), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(sys.NumSubtasks()), "subtasks")
			for i := 0; i < b.N; i++ {
				s, err := pfair.RunDVQ(sys, pfair.DVQOptions{M: cfg.m, Yield: y})
				if err != nil {
					b.Fatal(err)
				}
				if rat.One.Less(s.MaxTardiness()) {
					b.Fatal("bound violated")
				}
			}
		})
	}
}

// BenchmarkSFQLarge is the SFQ-engine counterpart of BenchmarkDVQLarge.
func BenchmarkSFQLarge(b *testing.B) {
	for _, cfg := range []struct {
		m, n int
		q    int64
	}{{4, 64, 20}, {16, 64, 12}, {16, 128, 12}} {
		sys := benchSystemQ(cfg.m, cfg.n, cfg.q, 60)
		b.Run(fmt.Sprintf("M%d_N%d", cfg.m, cfg.n), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(sys.NumSubtasks()), "subtasks")
			for i := 0; i < b.N; i++ {
				s, err := pfair.RunSFQ(sys, pfair.SFQOptions{M: cfg.m})
				if err != nil {
					b.Fatal(err)
				}
				if s.MissCount() != 0 {
					b.Fatal("PD² missed")
				}
			}
		})
	}
}

func BenchmarkPD2Compare(b *testing.B) {
	sys := benchSystem(4, 12, 24)
	subs := sys.All()
	pd2 := prio.PD2{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := subs[i%len(subs)]
		y := subs[(i*7+3)%len(subs)]
		pd2.Cmp(x, y)
	}
}

func BenchmarkGroupDeadline(b *testing.B) {
	tk := &model.Task{W: model.W(7, 9)}
	for i := 0; i < b.N; i++ {
		s := model.Subtask{Task: tk, Index: int64(i%500) + 1}
		if s.GroupDeadline() == 0 {
			b.Fatal("heavy task D = 0")
		}
	}
}

func BenchmarkRatArithmetic(b *testing.B) {
	x, y := rat.New(7, 12), rat.New(5, 9)
	for i := 0; i < b.N; i++ {
		x.Add(y).Mul(y).Sub(x)
	}
}

func BenchmarkE13EarlyRelease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E13EarlyRelease(int64(i), 2, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.ERMisses != 0 {
				b.Fatal("ER-PD² missed")
			}
		}
	}
}

func BenchmarkE14Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E14TieBreakAblation(int64(i), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineExecutive drives the incremental executive the way the
// service does — periodic SubmitJob calls interleaved with slot-by-slot Run
// — at full utilization with fractional yields. N4_M2 is the historical
// row; the wide rows (N ≥ 64) are the ones where the per-decision cost of
// choosing among N task heads shows.
func BenchmarkOnlineExecutive(b *testing.B) {
	small := []model.Weight{
		model.W(1, 2), model.W(3, 4), model.W(1, 4), model.W(1, 2),
	}
	for _, cfg := range []struct {
		m, n  int
		q     int64
		slots int64
	}{{2, 4, 0, 48}, {4, 64, 20, 96}, {16, 64, 12, 96}, {4, 1024, 320, 96}, {16, 1024, 80, 96}} {
		weights := small
		if cfg.q > 0 {
			rng := rand.New(rand.NewSource(99))
			weights = gen.GridWeights(rng, cfg.n, cfg.q, int64(cfg.m)*cfg.q, gen.MixedWeights)
		}
		y := pfair.UniformYield(11, 8)
		b.Run(fmt.Sprintf("N%d_M%d", cfg.n, cfg.m), func(b *testing.B) {
			b.ReportAllocs()
			decisions := 0
			for i := 0; i < b.N; i++ {
				ex := pfair.NewExecutive(cfg.m, nil)
				tasks := make([]*pfair.Task, len(weights))
				for k, w := range weights {
					task, err := ex.Register(fmt.Sprintf("t%d", k), w)
					if err != nil {
						b.Fatal(err)
					}
					tasks[k] = task
				}
				for slot := int64(0); slot < cfg.slots; slot++ {
					for k, w := range weights {
						if slot%w.P == 0 {
							if err := ex.SubmitJob(tasks[k], rat.FromInt(slot)); err != nil {
								b.Fatal(err)
							}
						}
					}
					if err := ex.Run(rat.FromInt(slot+1), y, nil); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ex.Drain(y); err != nil {
					b.Fatal(err)
				}
				if rat.One.Less(ex.Schedule().MaxTardiness()) {
					b.Fatal("bound violated")
				}
				decisions = ex.Schedule().Len()
			}
			b.ReportMetric(float64(decisions), "decisions")
		})
	}
}

func BenchmarkBaselineGlobalEDF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ws := gen.GridWeights(rng, 12, 12, 4*12, gen.MixedWeights)
	for i := 0; i < b.N; i++ {
		pfair.GlobalEDF(ws, 4, 120)
	}
}

func BenchmarkBaselineDFS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ws := gen.GridWeights(rng, 12, 12, 4*12, gen.MixedWeights)
	for i := 0; i < b.N; i++ {
		pfair.DFS(ws, 4, 120, true)
	}
}

func BenchmarkE15ClockDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E15ClockDrift(int64(i), 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if !p.DVQBoundHolds {
				b.Fatal("DVQ bound violated under drift sweep")
			}
		}
	}
}

func BenchmarkE16QuantumSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E16QuantumSize(1, 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Feasible && p.Misses != 0 {
				b.Fatal("feasible quantum missed deadlines")
			}
		}
	}
}

func BenchmarkE17Overload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.E17Overload(int64(i), 2, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE18PolicyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E18PolicyMatrix(int64(i), 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if rat.One.Less(p.MaxTardiness) {
				b.Fatal("bound violated on M=2")
			}
		}
	}
}

func BenchmarkE19TightnessByM(b *testing.B) {
	delta := rat.New(1, 8)
	for i := 0; i < b.N; i++ {
		if _, err := exp.E19TightnessByM(delta, []int{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE20Dynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.E20Dynamics(int64(i), 2, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if rat.One.Less(p.MaxTardiness) {
				b.Fatal("bound violated")
			}
		}
	}
}
