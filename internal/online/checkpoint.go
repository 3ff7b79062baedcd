package online

import (
	"fmt"

	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// Checkpoint is a serializable image of an Executive's full micro-state:
// everything a Restore needs to continue making byte-identical scheduling
// decisions. Dispatched history is deliberately NOT part of it — a
// restored executive starts an empty schedule, each task's subtask
// sequence starts at its last dispatched subtask, and only the dispatch
// cursors and completion times carry forward. That keeps checkpoints
// proportional to live state while preserving the determinism recovery
// relies on: same checkpoint + same subsequent calls ⇒ same dispatch
// sequence, and the same checkpoint bytes from a live executive and from
// one restored along the way. Rationals travel as exact strings.
// Checkpoints written while the executive kept an event queue carry an
// "events" key; decoding drops it, and NextEvent derives what it held.
type Checkpoint struct {
	M        int              `json:"m"`
	Policy   string           `json:"policy"`
	Now      string           `json:"now"`
	FreeAt   []string         `json:"freeAt"`
	Decision int              `json:"decision"`
	Pending  int              `json:"pending"`
	Tasks    []TaskCheckpoint `json:"tasks,omitempty"`
}

// TaskCheckpoint captures one task's registration and dispatch cursor.
// Cursor indexes Subs: Checkpoint emits the sequence from the last
// dispatched subtask on (Cursor is then 1, or 0 for a task that has
// dispatched nothing); Restore also accepts the whole released sequence
// with the absolute cursor, the form written before sequences were
// trimmed.
type TaskCheckpoint struct {
	Name    string              `json:"name"`
	E       int64               `json:"e"`
	P       int64               `json:"p"`
	Active  bool                `json:"active"`
	Cursor  int                 `json:"cursor"`
	LastFin string              `json:"lastFin"`
	NextIdx int64               `json:"nextIdx"`
	Subs    []SubtaskCheckpoint `json:"subs,omitempty"`
}

// SubtaskCheckpoint is one released subtask's window parameters. The last
// dispatched subtask travels with the undispatched tail because submit
// reads it for eq. (5)/(6) monotonicity (offsets and eligibility times
// never decrease along a sequence) when the tail is empty.
type SubtaskCheckpoint struct {
	Index int64 `json:"i"`
	Theta int64 `json:"theta"`
	Elig  int64 `json:"elig"`
}

// Checkpoint snapshots the executive. Like every other method it must run
// on the executive's single goroutine.
func (e *Executive) Checkpoint() Checkpoint {
	cp := Checkpoint{
		M:        e.M(),
		Policy:   e.policy.Name(),
		Now:      e.now.String(),
		Decision: e.decision,
		Pending:  e.pending,
	}
	for _, f := range e.freeAt {
		cp.FreeAt = append(cp.FreeAt, f.String())
	}
	for _, t := range e.sys.Tasks {
		from := max(e.cursor[t.ID]-1, 0) // the last dispatched subtask, if any
		tc := TaskCheckpoint{
			Name:    t.Name,
			E:       t.W.E,
			P:       t.W.P,
			Active:  e.active[t.ID],
			Cursor:  e.cursor[t.ID] - from,
			LastFin: e.lastFin[t.ID].String(),
			NextIdx: e.nextIdx[t.ID],
		}
		seq := e.sys.Subtasks(t)[from:]
		if len(seq) > 0 {
			tc.Subs = make([]SubtaskCheckpoint, 0, len(seq))
		}
		for _, s := range seq {
			tc.Subs = append(tc.Subs, SubtaskCheckpoint{Index: s.Index, Theta: s.Theta, Elig: s.Elig})
		}
		cp.Tasks = append(cp.Tasks, tc)
	}
	return cp
}

// Restore rebuilds an executive from a checkpoint. The result continues
// exactly where the checkpointed one would have: identical Register/
// SubmitJob/Run/Drain calls produce identical dispatch decisions. Every
// field is validated on the way in — a checkpoint that went through disk
// is untrusted input.
func Restore(cp Checkpoint) (*Executive, error) {
	pol := prio.ByName(cp.Policy)
	if pol == nil {
		return nil, fmt.Errorf("online: checkpoint has unknown policy %q", cp.Policy)
	}
	if cp.M < 1 {
		return nil, fmt.Errorf("online: checkpoint has m=%d", cp.M)
	}
	if len(cp.FreeAt) != cp.M {
		return nil, fmt.Errorf("online: checkpoint has %d freeAt entries for m=%d", len(cp.FreeAt), cp.M)
	}
	e := New(cp.M, pol)
	var err error
	if e.now, err = rat.Parse(cp.Now); err != nil {
		return nil, fmt.Errorf("online: checkpoint now: %v", err)
	}
	for p, s := range cp.FreeAt {
		if e.freeAt[p], err = rat.Parse(s); err != nil {
			return nil, fmt.Errorf("online: checkpoint freeAt[%d]: %v", p, err)
		}
	}
	e.decision = cp.Decision

	pending := 0
	for _, tc := range cp.Tasks {
		w := model.Weight{E: tc.E, P: tc.P}
		if err := w.Validate(); err != nil {
			return nil, fmt.Errorf("online: checkpoint task %q: %v", tc.Name, err)
		}
		if tc.Active {
			if err := e.admit(tc.Name, w); err != nil {
				return nil, fmt.Errorf("online: checkpoint task %q: %v", tc.Name, err)
			}
		}
		lastFin, err := rat.Parse(tc.LastFin)
		if err != nil {
			return nil, fmt.Errorf("online: checkpoint task %q lastFin: %v", tc.Name, err)
		}
		t := e.addTask(tc.Name, w, tc.Cursor, lastFin, tc.NextIdx, tc.Active)
		for _, sc := range tc.Subs {
			e.sys.AddSubtask(t, sc.Index, sc.Theta, sc.Elig)
		}
		nsubs := len(e.sys.Subtasks(t))
		if tc.Cursor < 0 || tc.Cursor > nsubs {
			return nil, fmt.Errorf("online: checkpoint task %q cursor %d of %d subtasks", tc.Name, tc.Cursor, nsubs)
		}
		pending += nsubs - tc.Cursor
		if tc.Cursor < nsubs {
			e.await(e.sys.Subtasks(t)[tc.Cursor])
		}
	}
	if pending != cp.Pending {
		return nil, fmt.Errorf("online: checkpoint pending=%d but cursors imply %d", cp.Pending, pending)
	}
	e.pending = pending
	if err := e.sys.Validate(); err != nil {
		return nil, fmt.Errorf("online: checkpoint system invalid: %v", err)
	}
	return e, nil
}
