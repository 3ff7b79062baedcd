package prio

import "desyncpfair/internal/model"

// keyKind is a policy's ranking strategy, resolved once per Ranker so the
// hot path switches on an integer instead of an interface type.
type keyKind uint8

const (
	kindFallback keyKind = iota // no fast path: every pair goes to Order
	kindEPDF
	kindPD2
	kindPD
	kindPF // fast prefix; Order walks the chain for b = 1 ties
	kindPD2NoGroup
)

func keyKindOf(p Policy) keyKind {
	switch p.(type) {
	case EPDF, PD2NoBBit:
		return kindEPDF
	case PD2NoGroup:
		return kindPD2NoGroup
	case PD2:
		return kindPD2
	case PD:
		return kindPD
	case PF:
		return kindPF
	}
	return kindFallback
}

// Rank is a subtask's place in a policy's total order — Order — as far as
// plain integers tell it, for an engine that sorts many subtasks and
// compares each O(log n) times: pointer-free, 24 bytes, computed once from
// the subtask. Ranks order by Deadline, then Tie, then ID (TaskID<<32 |
// Seq, Order's tie-break) — except that two ranks equal in Deadline and in
// an odd Tie are a tie only Order decides: PF's b = 1 chain walk, PD's
// weight rules, and every pair under a policy with no fast path.
type Rank struct {
	Deadline int64
	Tie      int64
	ID       uint64
}

// TaskID is the task ID r ranks a subtask of.
func (r *Rank) TaskID() int { return int(r.ID >> 32) }

// Ranker ranks subtasks under one policy, resolved once. It holds no
// per-subtask state, so an engine that keeps one Rank per task head stays
// O(tasks) however long it runs. A policy's order is its Cmp; a new policy
// with integer rules may add its fast path here, in Rank.
type Ranker struct{ kind keyKind }

// NewRanker resolves p's ranking strategy once.
func NewRanker(p Policy) Ranker { return Ranker{kind: keyKindOf(p)} }

// Rank returns s's rank: d(T_i), then the policy's tie-break after the
// deadline as one integer, shifted left so its low bit can say
// "undecided" — PD²'s successor bit (b = 1 first) and, among b = 1
// subtasks, its later-group-deadline-first rule as −2·D ≤ 0 against 2 for
// b = 0. D is derived only for a b = 1 subtask under PD² or PD. A policy
// without a fast path ranks every subtask alike.
func (r Ranker) Rank(s *model.Subtask) Rank {
	rk := Rank{ID: uint64(s.Task.ID)<<32 | uint64(uint32(s.Seq))}
	switch r.kind {
	case kindEPDF:
		rk.Deadline = s.Deadline()
	case kindPD2, kindPD:
		rk.Deadline, rk.Tie = s.Deadline(), 2
		if s.BBit() == 1 {
			rk.Tie = -2 * s.GroupDeadline()
		}
		if r.kind == kindPD {
			rk.Tie |= 1
		}
	case kindPD2NoGroup:
		rk.Deadline, rk.Tie = s.Deadline(), 2*int64(1-s.BBit())
	case kindPF:
		rk.Deadline, rk.Tie = s.Deadline(), 2-int64(s.BBit())
	default:
		rk.Tie = 1
	}
	return rk
}

// Before reports whether a subtask ranked a goes before one ranked b
// under the Ranker both ranks came from, and whether the ranks decide
// that: when decided is false only Order can.
func (a *Rank) Before(b *Rank) (before, decided bool) {
	switch {
	case a.Deadline != b.Deadline:
		return a.Deadline < b.Deadline, true
	case a.Tie != b.Tie:
		return a.Tie < b.Tie, true
	case a.Tie&1 != 0:
		return false, false
	}
	return a.ID < b.ID, true
}
