// Package baseline implements the comparison schedulers the paper positions
// Pfair against:
//
//   - global EDF and partitioned EDF, the non-Pfair approaches whose
//     worst-case schedulable utilization is only slightly above M/2
//     (Sec. 1 of the paper, citing Lopez et al. and Baruah/Andersson);
//   - DFS, the Deadline Fair Scheduling policy of Chandra, Adler & Shenoy
//     (2001), the first work to address the SFQ model's limitations: Pfair
//     deadlines with an auxiliary scheduler that hands otherwise-idle
//     processors to runnable but ineligible tasks. The original is an
//     empirical Linux scheduler; this is a faithful reconstruction of its
//     published rule set on the quantum model (see DESIGN.md §5).
//
// All baselines here schedule synchronous periodic task systems at quantum
// granularity.
package baseline

import (
	"fmt"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

// Job is one invocation of a periodic task in the job-level schedulers.
type Job struct {
	Task     int
	Index    int64 // 1-based job number
	Release  int64
	Deadline int64
	Cost     int64
	// scheduling state
	remaining int64
	finish    int64 // slot after last quantum; 0 until complete
}

// jobsOf expands weights into all jobs released before horizon.
func jobsOf(weights []model.Weight, horizon int64) []*Job {
	var jobs []*Job
	for ti, w := range weights {
		for j := int64(1); (j-1)*w.P < horizon; j++ {
			jobs = append(jobs, &Job{
				Task:      ti,
				Index:     j,
				Release:   (j - 1) * w.P,
				Deadline:  j * w.P,
				Cost:      w.E,
				remaining: w.E,
			})
		}
	}
	return jobs
}

// EDFResult summarizes a job-level run.
type EDFResult struct {
	Jobs         int
	Misses       int
	MaxTardiness int64
}

// MissRate returns Misses / Jobs.
func (r EDFResult) MissRate() float64 {
	if r.Jobs == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Jobs)
}

// GlobalEDF schedules the periodic system on m processors with global,
// preemptive, job-level EDF at quantum granularity: each slot runs the m
// released unfinished jobs with the earliest deadlines (one processor per
// job). It keeps running past misses to measure tardiness.
func GlobalEDF(weights []model.Weight, m int, horizon int64) EDFResult {
	jobs := jobsOf(weights, horizon)
	return runJobEDF(jobs, func(t int64, active []*Job) []*Job {
		sort.SliceStable(active, func(i, j int) bool {
			if active[i].Deadline != active[j].Deadline {
				return active[i].Deadline < active[j].Deadline
			}
			return active[i].Task < active[j].Task
		})
		if len(active) > m {
			active = active[:m]
		}
		return active
	})
}

// runJobEDF drives a slot loop: pick returns the jobs to run in slot t from
// the released unfinished set (already one-per-task disjoint because a
// task's jobs are serialized by their releases and we never run two jobs of
// one task concurrently — enforced below).
func runJobEDF(jobs []*Job, pick func(t int64, active []*Job) []*Job) EDFResult {
	res := EDFResult{Jobs: len(jobs)}
	remaining := len(jobs)
	// Serialize jobs of the same task: a job is dispatchable only when its
	// task's earlier jobs are complete.
	byTask := map[int][]*Job{}
	for _, j := range jobs {
		byTask[j.Task] = append(byTask[j.Task], j)
	}
	for _, list := range byTask {
		sort.Slice(list, func(a, b int) bool { return list[a].Index < list[b].Index })
	}
	cursor := map[int]int{}
	var horizon int64
	for _, j := range jobs {
		if j.Deadline > horizon {
			horizon = j.Deadline
		}
	}
	safety := horizon + int64(totalCost(jobs)) + 1
	for t := int64(0); remaining > 0 && t <= safety; t++ {
		var active []*Job
		for task, list := range byTask {
			c := cursor[task]
			if c < len(list) && list[c].Release <= t {
				active = append(active, list[c])
			}
		}
		for _, j := range pick(t, active) {
			j.remaining--
			if j.remaining == 0 {
				j.finish = t + 1
				cursor[j.Task]++
				remaining--
				if j.finish > j.Deadline {
					res.Misses++
					if tard := j.finish - j.Deadline; tard > res.MaxTardiness {
						res.MaxTardiness = tard
					}
				}
			}
		}
	}
	return res
}

func totalCost(jobs []*Job) int64 {
	var c int64
	for _, j := range jobs {
		c += j.Cost
	}
	return c
}

// PartitionFFD assigns tasks to m processors first-fit with tasks
// considered in decreasing utilization, the standard partitioning
// heuristic, admitting a task to a processor while the bin's utilization
// stays within 1. It returns per-processor task index lists, or an error
// when some task fits on no processor — the situation that caps
// partitioned schemes near 50% utilization.
func PartitionFFD(weights []model.Weight, m int) ([][]int, error) {
	return firstFitDecreasing(weights, m, "fits on no processor", func(load rat.Rat, _ int) bool {
		return load.LessEq(rat.One)
	})
}

// firstFitDecreasing is the one first-fit-decreasing loop: each task, in
// decreasing utilization, goes to the first bin that admits it — fits
// reports whether a bin may take the task, given the load and task count
// the bin would have with it. A task no bin admits is an error that ends
// with refusal.
func firstFitDecreasing(weights []model.Weight, m int, refusal string, fits func(load rat.Rat, n int) bool) ([][]int, error) {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := weights[order[a]], weights[order[b]]
		return wa.E*wb.P > wb.E*wa.P // decreasing utilization
	})
	bins := make([][]int, m)
	loads := make([]rat.Rat, m)
	for _, ti := range order {
		b := 0
		for ; b < m; b++ {
			if load := loads[b].Add(weights[ti].Rat()); fits(load, len(bins[b])+1) {
				bins[b] = append(bins[b], ti)
				loads[b] = load
				break
			}
		}
		if b == m {
			return nil, fmt.Errorf("baseline: task %d (weight %s) %s", ti, weights[ti], refusal)
		}
	}
	return bins, nil
}

// PartitionedEDF partitions with FFD and runs uniprocessor EDF per bin.
// Uniprocessor EDF is optimal, so a successful partition implies zero
// misses; the run is still performed to report them uniformly.
func PartitionedEDF(weights []model.Weight, m int, horizon int64) (EDFResult, error) {
	return partitioned(weights, m, horizon, PartitionFFD, GlobalEDF)
}

// partitioned is the one partitioned runner: it assigns the tasks to m
// processors with partition and runs each bin on one processor with run,
// summing jobs and misses and keeping the worst tardiness.
func partitioned(weights []model.Weight, m int, horizon int64,
	partition func([]model.Weight, int) ([][]int, error),
	run func([]model.Weight, int, int64) EDFResult) (EDFResult, error) {
	bins, err := partition(weights, m)
	if err != nil {
		return EDFResult{}, err
	}
	var total EDFResult
	for _, bin := range bins {
		sub := make([]model.Weight, len(bin))
		for i, ti := range bin {
			sub[i] = weights[ti]
		}
		r := run(sub, 1, horizon)
		total.Jobs += r.Jobs
		total.Misses += r.Misses
		total.MaxTardiness = max(total.MaxTardiness, r.MaxTardiness)
	}
	return total, nil
}

// DFSResult summarizes a Deadline-Fair-Scheduling run at subtask
// granularity.
type DFSResult struct {
	Subtasks     int
	Misses       int   // subtask pseudo-deadline misses
	MaxTardiness int64 // in quanta
	AuxQuanta    int   // quanta handed out by the auxiliary scheduler
}

// DFS reconstructs Chandra et al.'s Deadline Fair Scheduling on a
// synchronous periodic system: each task's next quantum has the Pfair
// pseudo-release ⌊alloc/wt⌋ and pseudo-deadline ⌈(alloc+1)/wt⌉; each slot
// runs the m eligible tasks with the earliest deadlines. When
// workConserving is set, processors left over (eligible tasks exhausted)
// are handed by the auxiliary scheduler to runnable-but-ineligible tasks —
// tasks whose current job has been released but whose fair share is spent —
// in deadline order.
func DFS(weights []model.Weight, m int, horizon int64, workConserving bool) DFSResult {
	n := len(weights)
	alloc := make([]int64, n) // quanta granted so far
	var res DFSResult
	type cand struct {
		task     int
		deadline int64
		eligible bool
	}
	// Total quanta each task should receive by the horizon (completed jobs
	// only, so the run drains).
	quota := make([]int64, n)
	for i, w := range weights {
		quota[i] = (horizon / w.P) * w.E
		res.Subtasks += int(quota[i])
	}
	for t := int64(0); t < horizon; t++ {
		var cands []cand
		for i, w := range weights {
			if alloc[i] >= quota[i] {
				continue
			}
			release := rat.FloorDiv(alloc[i]*w.P, w.E)
			deadline := rat.CeilDiv((alloc[i]+1)*w.P, w.E)
			eligible := release <= t
			// Runnable: the job containing the next quantum has arrived.
			jobRelease := (alloc[i] / w.E) * w.P
			if !eligible && (!workConserving || jobRelease > t) {
				continue
			}
			cands = append(cands, cand{task: i, deadline: deadline, eligible: eligible})
		}
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].eligible != cands[b].eligible {
				return cands[a].eligible // eligible tasks first
			}
			if cands[a].deadline != cands[b].deadline {
				return cands[a].deadline < cands[b].deadline
			}
			return cands[a].task < cands[b].task
		})
		if len(cands) > m {
			cands = cands[:m]
		}
		for _, c := range cands {
			w := weights[c.task]
			deadline := rat.CeilDiv((alloc[c.task]+1)*w.P, w.E)
			if t+1 > deadline {
				res.Misses++
				if tard := t + 1 - deadline; tard > res.MaxTardiness {
					res.MaxTardiness = tard
				}
			}
			if !c.eligible {
				res.AuxQuanta++
			}
			alloc[c.task]++
		}
	}
	// Quanta never granted by the horizon count as misses too.
	for i := range weights {
		res.Misses += int(quota[i] - alloc[i])
	}
	return res
}
