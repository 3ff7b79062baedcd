package prio

import "desyncpfair/internal/model"

// Key is the precomputed, immutable priority data of one subtask. Every
// quantity a policy's Cmp consults — pseudo-deadline, successor bit, group
// deadline, weight — costs integer divisions to derive from the subtask,
// and the seed engines re-derived them on every comparison. A Key is
// computed once per subtask per run and compared with plain integer
// arithmetic afterwards.
//
// Keys are only meaningful for subtasks owned by a model.System (their GID
// and Seq are set by AddSubtask); the hypothetical successor subtasks that
// PF's chain walk constructs never get keys — that walk is the one exact
// fallback (see keyCmp).
type Key struct {
	Deadline int64 // d(T_i), eq. (4)
	GroupD   int64 // D(T_i), the PD² group deadline (0 for light tasks)
	WE, WP   int64 // task weight e/p, for PD's larger-weight tie-break
	TaskID   int32 // engine tie-break: task ID …
	Seq      int32 // … then sequence position
	B        uint8 // successor bit b(T_i)
	Heavy    bool  // wt ≥ 1/2, for PD's heavy-before-light tie-break
}

// KeyOf computes the priority key of s.
func KeyOf(s *model.Subtask) Key {
	return Key{
		Deadline: s.Deadline(),
		GroupD:   s.GroupDeadline(),
		WE:       s.Task.W.E,
		WP:       s.Task.W.P,
		TaskID:   int32(s.Task.ID),
		Seq:      int32(s.Seq),
		B:        uint8(s.BBit()),
		Heavy:    s.Task.W.IsHeavy(),
	}
}

// keyKind is a policy's key-comparison strategy, resolved once per Ranker
// so the hot path switches on an integer instead of an interface type.
type keyKind uint8

const (
	kindFallback keyKind = iota // no key fast path: always exact Cmp
	kindEPDF
	kindPD2
	kindPD
	kindPF // fast prefix; exact chain walk for b = 1 ties
)

func keyKindOf(p Policy) keyKind {
	switch p.(type) {
	case EPDF:
		return kindEPDF
	case PD2:
		return kindPD2
	case PD:
		return kindPD
	case PF:
		return kindPF
	}
	return kindFallback
}

// keyCmp compares two subtasks using only their precomputed keys. The
// boolean reports whether the comparison is decided: false means the caller
// must fall back to the exact Policy.Cmp — PF ties among b = 1 subtasks (the
// successor-chain walk), and any policy without a key fast path (the
// ablation policies).
func keyCmp(k keyKind, a, b *Key) (int, bool) {
	switch k {
	case kindEPDF:
		return cmp64(a.Deadline, b.Deadline), true
	case kindPD2:
		return keyCmpPD2(a, b), true
	case kindPD:
		if c := keyCmpPD2(a, b); c != 0 {
			return c, true
		}
		if a.Heavy != b.Heavy {
			if a.Heavy {
				return -1, true
			}
			return 1, true
		}
		// Larger weight first: a.W > b.W ⇔ aE·bP > bE·aP.
		return -cmp64(a.WE*b.WP, b.WE*a.WP), true
	case kindPF:
		if c := cmp64(a.Deadline, b.Deadline); c != 0 {
			return c, true
		}
		if a.B != b.B {
			return keyBBitCmp(a.B, b.B), true
		}
		if a.B == 0 { // both bits 0: the tie stands
			return 0, true
		}
		return 0, false // both bits 1: only the chain walk decides
	}
	return 0, false
}

// keyCmpPD2 is PD2.Cmp over keys: deadline, then successor bit (1 wins),
// then — among b = 1 subtasks — later group deadline wins.
func keyCmpPD2(a, b *Key) int {
	if c := cmp64(a.Deadline, b.Deadline); c != 0 {
		return c
	}
	if a.B != b.B {
		return keyBBitCmp(a.B, b.B)
	}
	if a.B == 1 {
		return cmp64(b.GroupD, a.GroupD)
	}
	return 0
}

func keyBBitCmp(a, b uint8) int {
	if a == 1 {
		return -1
	}
	return 1
}

// Ranker is the one evaluator of a policy's engine total order — prio.Order
// — over subtasks whose Keys the caller caches: the key fast path, the exact
// p.Cmp where keys cannot decide (PF's b = 1 chain walk, the ablation
// policies), then task ID and sequence position. It holds no per-subtask
// state and no memo, so an engine that caches one Key per task head stays
// O(tasks) however long it runs. A new policy's order goes here, in
// Compare, and nowhere else.
type Ranker struct {
	pol  Policy
	kind keyKind
}

// NewRanker resolves p's key-comparison strategy once.
func NewRanker(p Policy) Ranker { return Ranker{pol: p, kind: keyKindOf(p)} }

// Compare is the total order as a three-way compare of a (whose key is ka)
// and b (key kb): negative when a is scheduled first, zero only for a
// subtask against itself. Its sign agrees with Order(p, a, b) on every pair.
func (r Ranker) Compare(ka, kb *Key, a, b *model.Subtask) int {
	c, decided := keyCmp(r.kind, ka, kb)
	if !decided {
		c = r.pol.Cmp(a, b)
	}
	if c != 0 {
		return c
	}
	if ka.TaskID != kb.TaskID {
		return cmp64(int64(ka.TaskID), int64(kb.TaskID))
	}
	return cmp64(int64(ka.Seq), int64(kb.Seq))
}

// Before reports whether a is scheduled before b.
func (r Ranker) Before(ka, kb *Key, a, b *model.Subtask) bool {
	return r.Compare(ka, kb, a, b) < 0
}
