// Package analysis computes the quantitative measures used in the
// experiments: lag functions (the classical Pfair fairness measure),
// per-slot load, quantum-residue waste (the SFQ inefficiency the paper's
// DVQ model reclaims), response times, and roll-up summaries.
package analysis

import (
	"fmt"
	"io"
	"sort"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

// IdealLag returns lag(T, t) = wt(T)·t − allocated(T, [0, t)) for a
// slot-based schedule, counting one quantum per scheduled subtask in slots
// before t. For synchronous periodic task systems, a schedule is Pfair iff
// −1 < lag(T, t) < 1 for all T and integral t.
func IdealLag(s *sched.Schedule, task *model.Task, t int64) rat.Rat {
	allocated := int64(0)
	for _, sub := range s.Sys.Subtasks(task) {
		if a := s.Of(sub); a != nil && a.Slot() < t {
			allocated++
		}
	}
	return task.W.Rat().Mul(rat.FromInt(t)).Sub(rat.FromInt(allocated))
}

// CheckPfairness verifies the classical Pfairness condition |lag| < 1 at
// every integral time for every task. It is meaningful for synchronous
// periodic task systems (no offsets, no omissions); for IS/GIS systems the
// ideal allocation is defined against released subtasks instead, and this
// check is skipped with an error describing why.
func CheckPfairness(s *sched.Schedule) error {
	for _, task := range s.Sys.Tasks {
		for k, sub := range s.Sys.Subtasks(task) {
			if sub.Theta != 0 || sub.Index != int64(k+1) {
				return fmt.Errorf("analysis: %s is not synchronous periodic (θ=%d, index %d at position %d)",
					task, sub.Theta, sub.Index, k)
			}
		}
	}
	one := rat.One
	horizon := s.Makespan().Ceil()
	for _, task := range s.Sys.Tasks {
		for t := int64(0); t <= horizon; t++ {
			l := IdealLag(s, task, t)
			if !l.Less(one) || !l.Neg().Less(one) {
				return fmt.Errorf("analysis: lag(%s, %d) = %s outside (−1, 1)", task, t, l)
			}
		}
	}
	return nil
}

// QuantumResidue returns Σ (1 − c(T_i)): the processor time stranded by
// early-yielding subtasks under the SFQ model (each occupies a full slot
// regardless of its actual cost). Under the DVQ model this time is
// reclaimed, so the residue of an SFQ schedule is exactly the reclaimable
// waste the paper's model eliminates.
func QuantumResidue(s *sched.Schedule) rat.Rat {
	w := rat.Zero
	for _, a := range s.Assignments() {
		w = w.Add(rat.One.Sub(a.Cost))
	}
	return w
}

// Summary rolls up the measures reported by the experiment tables.
type Summary struct {
	Algo, Model  string
	Subtasks     int
	Misses       int
	MaxTardiness rat.Rat
	MeanTardy    float64 // mean tardiness over all subtasks
	MeanResponse float64
	Makespan     rat.Rat
	BusyFraction float64 // busy time / (M × makespan)
	Residue      rat.Rat // SFQ quantum residue (0 under DVQ semantics)
}

// Summarize computes a Summary for a complete schedule.
func Summarize(s *sched.Schedule) Summary {
	sum := Summary{
		Algo:         s.Algo,
		Model:        s.Model,
		Subtasks:     s.Len(),
		Misses:       s.MissCount(),
		MaxTardiness: s.MaxTardiness(),
		Makespan:     s.Makespan(),
		Residue:      QuantumResidue(s),
	}
	tardy, response := 0.0, 0.0
	asgs := s.Assignments()
	for _, a := range asgs {
		tardy += s.Tardiness(a.Sub).Float64()
		response += a.Finish().Sub(rat.FromInt(a.Sub.Release())).Float64()
	}
	if s.Len() > 0 {
		sum.MeanTardy = tardy / float64(s.Len())
	}
	if len(asgs) > 0 {
		sum.MeanResponse = response / float64(len(asgs))
	}
	if s.Makespan().Sign() > 0 {
		sum.BusyFraction = s.BusyTime().Float64() / (float64(s.M) * s.Makespan().Float64())
	}
	return sum
}

// MissRate returns Misses / Subtasks (0 for empty schedules).
func (s Summary) MissRate() float64 {
	if s.Subtasks == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Subtasks)
}

// Migrations counts inter-processor migrations: consecutive subtasks of a
// task executing on different processors. Pfair allows migration freely
// ("interprocessor migration is allowed but parallelism is not"); this
// counts how often the schedulers actually use it, the cost Holman &
// Anderson's staggering and task-affinity heuristics try to contain.
func Migrations(s *sched.Schedule) int {
	n := 0
	for _, task := range s.Sys.Tasks {
		prev := -1
		for _, sub := range s.Sys.Subtasks(task) {
			a := s.Of(sub)
			if a == nil {
				continue
			}
			if prev >= 0 && a.Proc != prev {
				n++
			}
			prev = a.Proc
		}
	}
	return n
}

// LagPoint is one sample of a task's lag trajectory.
type LagPoint struct {
	T   int64
	Lag rat.Rat
}

// LagSeries samples lag(T, t) at every integral time up to the makespan —
// the fluid-schedule deviation curve that Pfairness bounds to (−1, 1).
func LagSeries(s *sched.Schedule, task *model.Task) []LagPoint {
	horizon := s.Makespan().Ceil()
	out := make([]LagPoint, 0, horizon+1)
	for t := int64(0); t <= horizon; t++ {
		out = append(out, LagPoint{T: t, Lag: IdealLag(s, task, t)})
	}
	return out
}

// WriteLagCSV emits the lag trajectories of every task as CSV rows
// (task,time,lag) for external plotting.
func WriteLagCSV(w io.Writer, s *sched.Schedule) error {
	if _, err := fmt.Fprintln(w, "task,time,lag"); err != nil {
		return err
	}
	for _, task := range s.Sys.Tasks {
		for _, p := range LagSeries(s, task) {
			if _, err := fmt.Fprintf(w, "%s,%d,%s\n", task, p.T, p.Lag); err != nil {
				return err
			}
		}
	}
	return nil
}

// Histogram buckets subtask tardiness into eighths of a quantum:
// bucket k counts tardiness in (k/8, (k+1)/8], with bucket 0 also holding
// the on-time subtasks and bucket 8 anything above 7/8 (which by the
// paper's bounds never exceeds 1).
type Histogram struct {
	Buckets [9]int
	Total   int
}

// TardinessHistogram buckets every scheduled subtask of s.
func TardinessHistogram(s *sched.Schedule) Histogram {
	var h Histogram
	eighth := rat.New(1, 8)
	for _, a := range s.Assignments() {
		h.Total++
		t := s.Tardiness(a.Sub)
		if t.Sign() == 0 {
			h.Buckets[0]++
			continue
		}
		k := 0
		bound := eighth
		for k < 8 && bound.Less(t) {
			k++
			bound = bound.Add(eighth)
		}
		h.Buckets[k]++
	}
	return h
}

// Merge adds other's counts into h.
func (h *Histogram) Merge(other Histogram) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Total += other.Total
}

// String renders the histogram as one compact line.
func (h Histogram) String() string {
	out := fmt.Sprintf("n=%d [0:%d", h.Total, h.Buckets[0])
	for k := 1; k < len(h.Buckets); k++ {
		out += fmt.Sprintf(" ≤%d/8:%d", k, h.Buckets[k])
	}
	return out + "]"
}

// JobStat is one job's outcome: the job of task T with index j completes
// when its last subtask does, and its deadline is the sporadic job
// deadline θ + j·P (meaningful when the job's subtasks share one offset,
// as produced by model.AddSporadic, the online executive and periodic
// construction).
type JobStat struct {
	Task      *model.Task
	Job       int64
	Deadline  int64
	Finish    rat.Rat
	Tardiness rat.Rat
}

// Jobs aggregates per-job completion statistics from a schedule. Jobs with
// unscheduled subtasks are skipped.
func Jobs(s *sched.Schedule) []JobStat {
	var out []JobStat
	for _, task := range s.Sys.Tasks {
		perJob := map[int64]*JobStat{}
		complete := map[int64]int64{}
		for _, sub := range s.Sys.Subtasks(task) {
			a := s.Of(sub)
			if a == nil {
				continue
			}
			j := sub.JobIndex()
			complete[j]++
			st, ok := perJob[j]
			if !ok {
				st = &JobStat{Task: task, Job: j, Deadline: sub.JobDeadline()}
				perJob[j] = st
			}
			if st.Finish.Less(a.Finish()) {
				st.Finish = a.Finish()
			}
		}
		for j, st := range perJob {
			// GIS omissions mean a job may have fewer than E subtasks
			// released; the job completes when its released subtasks do.
			if complete[j] == 0 {
				continue
			}
			st.Tardiness = rat.Max(rat.Zero, st.Finish.Sub(rat.FromInt(st.Deadline)))
			out = append(out, *st)
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Task.ID != out[k].Task.ID {
			return out[i].Task.ID < out[k].Task.ID
		}
		return out[i].Job < out[k].Job
	})
	return out
}

// MaxJobTardiness returns the largest per-job tardiness (0 if no jobs).
func MaxJobTardiness(s *sched.Schedule) rat.Rat {
	m := rat.Zero
	for _, j := range Jobs(s) {
		m = rat.Max(m, j.Tardiness)
	}
	return m
}
