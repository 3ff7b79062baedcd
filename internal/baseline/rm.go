package baseline

import (
	"math"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Rate-monotonic baselines. The paper's Sec. 1 cites the ~50% worst-case
// utilization caps of non-Pfair approaches via Lopez et al. (EDF), Baruah
// (fixed-priority) and Andersson & Jonsson (partitioned/global
// static-priority). RM is the canonical static-priority policy, and the
// original Dhall effect was exhibited under global RM; these schedulers
// complete the comparison set of experiment E10.

// GlobalRM schedules the periodic system with global, preemptive,
// job-level rate-monotonic priorities (shorter period = higher priority,
// fixed per task) at quantum granularity.
func GlobalRM(weights []model.Weight, m int, horizon int64) EDFResult {
	jobs := jobsOf(weights, horizon)
	return runJobEDF(jobs, func(t int64, active []*Job) []*Job {
		sort.SliceStable(active, func(i, j int) bool {
			pi, pj := weights[active[i].Task].P, weights[active[j].Task].P
			if pi != pj {
				return pi < pj
			}
			return active[i].Task < active[j].Task
		})
		if len(active) > m {
			active = active[:m]
		}
		return active
	})
}

// LiuLaylandBound returns the classical uniprocessor RM utilization bound
// n·(2^{1/n} − 1) for n tasks.
func LiuLaylandBound(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * (math.Pow(2, 1/float64(n)) - 1)
}

// PartitionFFDRM partitions tasks onto m processors first-fit decreasing,
// admitting a task to a processor only if the bin's utilization stays
// within the Liu–Layland bound for its new task count — the standard
// sufficient schedulability test for per-processor RM.
func PartitionFFDRM(weights []model.Weight, m int) ([][]int, error) {
	return firstFitDecreasing(weights, m, "admitted by no processor under Liu–Layland", func(load rat.Rat, n int) bool {
		return load.Float64() <= LiuLaylandBound(n)
	})
}

// PartitionedRM partitions with PartitionFFDRM and runs per-processor RM.
// A successful Liu–Layland partition guarantees zero misses; the simulation
// is still performed so results are uniformly empirical.
func PartitionedRM(weights []model.Weight, m int, horizon int64) (EDFResult, error) {
	return partitioned(weights, m, horizon, PartitionFFDRM, GlobalRM)
}

// DhallWeights returns the classical Dhall-effect task set for m
// processors: m light tasks (1 quantum every period−1 slots) plus one
// weight-1 task. Total utilization is 1 + m/(period−1) ≤ m for m ≥ 2, yet
// both global RM and global EDF miss the heavy task's deadline.
func DhallWeights(m int, period int64) []model.Weight {
	ws := make([]model.Weight, 0, m+1)
	for i := 0; i < m; i++ {
		ws = append(ws, model.W(1, period-1))
	}
	return append(ws, model.W(period, period))
}
