// Package model implements the task models of Pfair scheduling: periodic,
// sporadic, intra-sporadic (IS) and generalized intra-sporadic (GIS) task
// systems, exactly as defined in Sec. 2 of Devi & Anderson (IPPS 2005) and
// the prior work it builds on (Baruah et al. 1996; Anderson & Srinivasan
// 2000–2004; Srinivasan & Anderson 2002).
//
// A task T has an integer execution cost T.e and period T.p with weight
// wt(T) = e/p ∈ (0, 1]. Each task is divided into quantum-length subtasks
// T_1, T_2, …; subtask T_i has
//
//	release   r(T_i) = θ(T_i) + ⌊(i−1)/wt(T)⌋            (eq. 3)
//	deadline  d(T_i) = θ(T_i) + ⌈ i   /wt(T)⌉            (eq. 4)
//
// where the offset θ(T_i) right-shifts the window for IS/GIS behaviour and
// must be non-decreasing in i (eq. 5). The eligibility time e(T_i) ≤ r(T_i)
// with e(T_i) ≤ e(T_{i+1}) (eq. 6) bounds how early the subtask may be
// scheduled ("early releasing"). [r, d) is the PF-window; [e, d) the
// IS-window.
//
// The package also provides the two PD² tie-break parameters: the successor
// bit b(T_i) and the group deadline D(T_i) (see Subtask.BBit and
// Subtask.GroupDeadline).
package model

import (
	"fmt"
	"sort"

	"desyncpfair/internal/rat"
)

// Weight is a task weight (utilization) E/P with 0 < E ≤ P.
type Weight struct {
	E int64 // per-job execution cost, in quanta
	P int64 // period, in quanta
}

// W is shorthand for constructing a Weight.
func W(e, p int64) Weight { return Weight{E: e, P: p} }

// Rat returns the weight as an exact rational.
func (w Weight) Rat() rat.Rat { return rat.New(w.E, w.P) }

// IsHeavy reports whether wt ≥ 1/2. Heavy tasks are the ones with
// overlapping successive windows, for which the PD² group deadline matters.
func (w Weight) IsHeavy() bool { return 2*w.E >= w.P }

// Validate checks 0 < E ≤ P.
func (w Weight) Validate() error {
	if w.E <= 0 || w.P <= 0 {
		return fmt.Errorf("model: weight %d/%d has non-positive component", w.E, w.P)
	}
	if w.E > w.P {
		return fmt.Errorf("model: weight %d/%d exceeds 1", w.E, w.P)
	}
	return nil
}

func (w Weight) String() string { return fmt.Sprintf("%d/%d", w.E, w.P) }

// Task is a recurrent task. Its subtask sequence (including IS offsets and
// GIS omissions) lives in the System that owns it.
type Task struct {
	ID   int    // dense index within its System
	Name string // display name ("A", "B", … in the paper's figures)
	W    Weight
}

func (t *Task) String() string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("T%d", t.ID)
}

// Subtask is one quantum-length unit of work of a task.
type Subtask struct {
	Task  *Task
	Index int64 // i ≥ 1; GIS systems may skip indices
	Theta int64 // offset θ(T_i) ≥ 0, non-decreasing along the released sequence
	Elig  int64 // eligibility time e(T_i) ≤ r(T_i), non-decreasing
	Seq   int   // position in the task's released sequence (0-based); Seq-1 is the predecessor
}

// Release returns the pseudo-release r(T_i) per eq. (3).
func (s *Subtask) Release() int64 {
	return s.Theta + rat.FloorDiv((s.Index-1)*s.Task.W.P, s.Task.W.E)
}

// Deadline returns the pseudo-deadline d(T_i) per eq. (4).
func (s *Subtask) Deadline() int64 {
	return s.Theta + rat.CeilDiv(s.Index*s.Task.W.P, s.Task.W.E)
}

// WindowLength returns |w(T_i)| = d(T_i) − r(T_i).
func (s *Subtask) WindowLength() int64 { return s.Deadline() - s.Release() }

// BBit returns the successor bit b(T_i): 1 if the PF-window of T_i would
// overlap that of T_{i+1} when released as early as possible (i.e. when
// i/wt(T) is not integral), else 0. The bit depends only on the weight and
// index, not on offsets — exactly the definition used by PD².
func (s *Subtask) BBit() int {
	if (s.Index*s.Task.W.P)%s.Task.W.E != 0 {
		return 1
	}
	return 0
}

// GroupDeadline returns the PD² group deadline D(T_i).
//
// For a heavy task (wt ≥ 1/2, wt < 1) it is the earliest time t ≥ d(T_i) at
// which a cascade of forced single-slot schedulings must end: the earliest
// t ≥ d(T_i) such that t = d(T_j) for some j ≥ i with b(T_j) = 0, or
// t = d(T_j) − 1 for some j with |w(T_j)| = 3. In closed form,
//
//	D(T_i) = θ(T_i) + ⌈ P·(⌈iP/E⌉ − i) / (P − E) ⌉.
//
// Light tasks (wt < 1/2) and weight-1 tasks never reach the group-deadline
// comparison in PD² (their b-bits resolve the tie first, or — for light
// tasks — PD² defines D = 0), so 0 is returned for them.
func (s *Subtask) GroupDeadline() int64 {
	w := s.Task.W
	if !w.IsHeavy() || w.E == w.P {
		return 0
	}
	d0 := rat.CeilDiv(s.Index*w.P, w.E) // deadline without θ
	return s.Theta + rat.CeilDiv(w.P*(d0-s.Index), w.P-w.E)
}

// GroupDeadlineByScan computes D(T_i) from the windows-based definition by
// scanning successors; it exists to cross-check the closed form in tests.
func (s *Subtask) GroupDeadlineByScan() int64 {
	w := s.Task.W
	if !w.IsHeavy() || w.E == w.P {
		return 0
	}
	for j := s.Index; ; j++ {
		v := Subtask{Task: s.Task, Index: j, Theta: s.Theta}
		if v.BBit() == 0 {
			return v.Deadline()
		}
		if next := (Subtask{Task: s.Task, Index: j + 1, Theta: s.Theta}); next.WindowLength() >= 3 {
			// A length-3 window w(T_{j+1}) breaks the cascade one slot
			// before its deadline.
			return next.Deadline() - 1
		}
	}
}

func (s *Subtask) String() string {
	return fmt.Sprintf("%s_%d", s.Task, s.Index)
}

// Label returns the paper-style label with window info, e.g. "A_1[0,6)".
func (s *Subtask) Label() string {
	return fmt.Sprintf("%s_%d[%d,%d)", s.Task, s.Index, s.Release(), s.Deadline())
}

// System is a GIS task system: a set of tasks, each with an explicit
// released-subtask sequence. Periodic and IS systems are special cases
// (no omissions; and additionally zero offsets for periodic).
type System struct {
	Tasks []*Task
	seqs  [][]*Subtask // per task ID, in released order
	nsubs int          // released-subtask count (NumSubtasks), forgotten ones included
}

// NewSystem creates an empty system.
func NewSystem() *System { return &System{} }

// AddTask appends a task with the given name and weight and returns it.
// It panics on an invalid weight, which is a programming error.
func (sys *System) AddTask(name string, w Weight) *Task {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	t := &Task{ID: len(sys.Tasks), Name: name, W: w}
	sys.Tasks = append(sys.Tasks, t)
	sys.seqs = append(sys.seqs, nil)
	return t
}

// AddSubtask appends the released subtask (index, θ, e) to t's sequence and
// returns it. Constraint violations (eqs. 5, 6, the GIS index rule) are
// reported by Validate, not here, so that tests can construct bad systems.
func (sys *System) AddSubtask(t *Task, index, theta, elig int64) *Subtask {
	return sys.AppendSubtask(&Subtask{Task: t, Index: index, Theta: theta, Elig: elig})
}

// AppendSubtask is AddSubtask of a subtask the caller filled in (Task,
// Index, Theta, Elig): it sets s.Seq and appends s. An engine that reuses
// what Forget dropped releases through it.
func (sys *System) AppendSubtask(s *Subtask) *Subtask {
	s.Seq = len(sys.seqs[s.Task.ID])
	sys.nsubs++
	sys.seqs[s.Task.ID] = append(sys.seqs[s.Task.ID], s)
	return s
}

// Subtasks returns t's released sequence in order (what Forget left of it).
func (sys *System) Subtasks(t *Task) []*Subtask { return sys.seqs[t.ID] }

// Forget drops the first n subtasks of t's sequence and renumbers the rest
// from Seq 0 — the form an online checkpoint restores from. An engine that
// runs forever calls it for subtasks it has dispatched and will not read
// again; NumSubtasks keeps counting everything ever released.
func (sys *System) Forget(t *Task, n int) {
	seq := sys.seqs[t.ID]
	kept := copy(seq, seq[n:])
	clear(seq[kept:])
	for k, s := range seq[:kept] {
		s.Seq = k
	}
	sys.seqs[t.ID] = seq[:kept]
}

// All returns every released subtask of every task.
func (sys *System) All() []*Subtask {
	var out []*Subtask
	for _, seq := range sys.seqs {
		out = append(out, seq...)
	}
	return out
}

// NumSubtasks returns the total number of released subtasks.
func (sys *System) NumSubtasks() int { return sys.nsubs }

// Predecessor returns the predecessor of s in its task's released sequence,
// or nil if s is the first released subtask of its task.
func (sys *System) Predecessor(s *Subtask) *Subtask {
	if s.Seq == 0 {
		return nil
	}
	return sys.seqs[s.Task.ID][s.Seq-1]
}

// Successor returns the successor of s, or nil if s is the last released
// subtask of its task.
func (sys *System) Successor(s *Subtask) *Subtask {
	seq := sys.seqs[s.Task.ID]
	if s.Seq+1 >= len(seq) {
		return nil
	}
	return seq[s.Seq+1]
}

// TotalUtilization returns Σ wt(T), exactly.
func (sys *System) TotalUtilization() rat.Rat {
	u := rat.Zero
	for _, t := range sys.Tasks {
		u = u.Add(t.W.Rat())
	}
	return u
}

// Feasible is the Pfair feasibility condition Σwt ≤ M — exact (an iff) for
// GIS task systems, and by Theorem 3 what buys tardiness ≤ 1 quantum under
// PD²-DVQ. Every admission decision in the repository is this comparison:
// the analytical tests of internal/admission, the online executive's
// stateful ledger (and through it the service), scenario validation and
// the M sweep, and the quantum-size curve.
func Feasible(util rat.Rat, m int) bool {
	return util.LessEq(rat.FromInt(int64(m)))
}

// Feasible reports whether the system is feasible on m processors.
func (sys *System) Feasible(m int) bool {
	return Feasible(sys.TotalUtilization(), m)
}

// Horizon returns the latest deadline of any released subtask (0 if none).
func (sys *System) Horizon() int64 {
	var h int64
	for _, seq := range sys.seqs {
		for _, s := range seq {
			if d := s.Deadline(); d > h {
				h = d
			}
		}
	}
	return h
}

// Validate checks every structural constraint of the GIS model:
//   - weights valid; subtask indices ≥ 1 and strictly increasing per task;
//   - offsets θ non-negative and non-decreasing along each sequence (eq. 5,
//     which for omitted indices is exactly the GIS release-separation rule);
//   - eligibility times e(T_i) ≤ r(T_i) and non-decreasing (eq. 6);
//   - Seq fields consistent.
func (sys *System) Validate() error {
	for _, t := range sys.Tasks {
		if err := t.W.Validate(); err != nil {
			return err
		}
		seq := sys.seqs[t.ID]
		for k, s := range seq {
			if s.Seq != k {
				return fmt.Errorf("model: %s has Seq %d, want %d", s, s.Seq, k)
			}
			if s.Index < 1 {
				return fmt.Errorf("model: %s has index < 1", s)
			}
			if s.Theta < 0 {
				return fmt.Errorf("model: %s has negative offset %d", s, s.Theta)
			}
			if s.Elig > s.Release() {
				return fmt.Errorf("model: %s eligible at %d after release %d (violates eq. 6)", s, s.Elig, s.Release())
			}
			if k > 0 {
				p := seq[k-1]
				if s.Index <= p.Index {
					return fmt.Errorf("model: %s index not greater than predecessor %s", s, p)
				}
				if s.Theta < p.Theta {
					return fmt.Errorf("model: %s offset %d decreases from predecessor's %d (violates eq. 5)", s, s.Theta, p.Theta)
				}
				if s.Elig < p.Elig {
					return fmt.Errorf("model: %s eligibility %d decreases from predecessor's %d (violates eq. 6)", s, s.Elig, p.Elig)
				}
			}
		}
	}
	return nil
}

// AddPeriodic adds a periodic task (θ = 0, e = r, consecutive indices) with
// all subtasks whose release is < horizon, and returns the task.
func (sys *System) AddPeriodic(name string, w Weight, horizon int64) *Task {
	t := sys.AddTask(name, w)
	for i := int64(1); ; i++ {
		s := Subtask{Task: t, Index: i}
		if s.Release() >= horizon {
			break
		}
		sys.AddSubtask(t, i, 0, s.Release())
	}
	return t
}

// Periodic builds a periodic system from weights, releasing every subtask
// with release time < horizon. Names are "A", "B", … then "T26", ….
func Periodic(weights []Weight, horizon int64) *System {
	sys := NewSystem()
	for k, w := range weights {
		sys.AddPeriodic(TaskName(k), w, horizon)
	}
	return sys
}

// TaskName names the k-th task (0-based) of a generated system: "A" … "Z",
// then "T26", "T27", ….
func TaskName(k int) string {
	if k < 26 {
		return string(rune('A' + k))
	}
	return fmt.Sprintf("T%d", k)
}

// Hyperperiod returns the LCM of all task periods (1 for an empty system).
// Useful for choosing simulation horizons for periodic systems.
func (sys *System) Hyperperiod() int64 {
	l := int64(1)
	for _, t := range sys.Tasks {
		l = lcm(l, t.W.P)
	}
	return l
}

func lcm(a, b int64) int64 {
	return a / gcd(a, b) * b
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// SortSubtasks orders subtasks deterministically by (task ID, sequence
// position); used by engines to make iteration order reproducible.
func SortSubtasks(subs []*Subtask) {
	sort.Slice(subs, func(i, j int) bool {
		if subs[i].Task.ID != subs[j].Task.ID {
			return subs[i].Task.ID < subs[j].Task.ID
		}
		return subs[i].Seq < subs[j].Seq
	})
}

// JobIndex returns the 1-based job number the subtask belongs to: job j of
// a task with per-job cost E consists of subtasks (j−1)E+1 … jE.
func (s *Subtask) JobIndex() int64 {
	return rat.CeilDiv(s.Index, s.Task.W.E)
}

// JobDeadline returns the deadline of the subtask's job under the sporadic
// interpretation: the job released at θ + (j−1)·P is due at θ + j·P. It
// coincides with the last subtask's pseudo-deadline when the whole job
// shares one offset (periodic and sporadic systems; AddSporadic guarantees
// this). For general IS/GIS offsets, per-subtask pseudo-deadlines are the
// meaningful notion instead.
func (s *Subtask) JobDeadline() int64 {
	return s.Theta + s.JobIndex()*s.Task.W.P
}

// AddSporadic adds a task whose jobs are released at the given times. Job
// releases must be non-decreasing and separated by at least the period
// (the sporadic constraint); the first release may be any time ≥ 0. All E
// subtasks of a job share the job's offset, so their windows are the
// periodic windows right-shifted by the job's lateness.
func (sys *System) AddSporadic(name string, w Weight, releases []int64) (*Task, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	for j := 1; j < len(releases); j++ {
		if releases[j] < releases[j-1]+w.P {
			return nil, fmt.Errorf("model: sporadic releases %d and %d of %s closer than the period %d",
				releases[j-1], releases[j], name, w.P)
		}
	}
	if len(releases) > 0 && releases[0] < 0 {
		return nil, fmt.Errorf("model: negative first release for %s", name)
	}
	t := sys.AddTask(name, w)
	for j, rel := range releases {
		theta := rel - int64(j)*w.P // job j (0-based) starts at (j)·P with θ = 0
		for k := int64(0); k < w.E; k++ {
			i := int64(j)*w.E + k + 1
			s := sys.AddSubtask(t, i, theta, 0)
			s.Elig = s.Release()
		}
	}
	return t, nil
}
