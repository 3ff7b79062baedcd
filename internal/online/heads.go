package online

import (
	"desyncpfair/internal/model"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
)

// The executive tracks one entry per task with undispatched work: the
// task's head, its first undispatched subtask. A head waits on the
// pendingHeap until its activation time — max(eligibility, predecessor's
// completion) — and then on the readyHeap until a processor frees. The
// next decision time is read off the two heaps and the M freeAt values
// (NextEvent); no time is queued anywhere else. Both heaps are bounded by
// the number of tasks with released work; a task with none (idle, or
// unregistered) is in neither and costs a scheduling decision nothing.

// readyHead is a ready task head with its priority key, computed once on
// entry: every quantity a policy consults costs integer divisions to
// derive, and a head is compared O(log N) times while it waits.
type readyHead struct {
	key prio.Key
	sub *model.Subtask
}

// readyHeap is a binary min-heap of ready heads under the engine's total
// order (prio.Ranker.Before), so pop returns exactly the subtask an O(N)
// rescan of every task with prio.Order would select.
type readyHeap struct {
	rank prio.Ranker
	xs   []readyHead
}

func (h *readyHeap) len() int { return len(h.xs) }

func (h *readyHeap) before(i, j int) bool {
	a, b := &h.xs[i], &h.xs[j]
	return h.rank.Before(&a.key, &b.key, a.sub, b.sub)
}

func (h *readyHeap) push(s *model.Subtask) {
	h.xs = append(h.xs, readyHead{prio.KeyOf(s), s})
	xs := h.xs
	for i := len(xs) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		xs[i], xs[p] = xs[p], xs[i]
		i = p
	}
}

// pop removes and returns the highest-priority ready head. It panics on an
// empty heap.
func (h *readyHeap) pop() *model.Subtask {
	xs := h.xs
	top := xs[0].sub
	n := len(xs) - 1
	xs[0] = xs[n]
	xs[n] = readyHead{}
	h.xs = xs[:n]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && h.before(l, min) {
			min = l
		}
		if r < n && h.before(r, min) {
			min = r
		}
		if min == i {
			return top
		}
		xs[i], xs[min] = xs[min], xs[i]
		i = min
	}
}

// pendingHeap is a binary min-heap of heads that are not yet ready, keyed
// by activation time. Entries activating at the same time may pop in any
// order: the readyHeap re-orders them by priority before a decision reads
// them. Times on one grid — all of them, under full quanta — compare as
// plain integers (rat.Cmp's equal-denominator path).
type pendingHeap []pendingHead

type pendingHead struct {
	at  rat.Rat
	sub *model.Subtask
}

func (h *pendingHeap) push(at rat.Rat, s *model.Subtask) {
	xs := append(*h, pendingHead{at, s})
	for i := len(xs) - 1; i > 0; {
		p := (i - 1) / 2
		if !xs[i].at.Less(xs[p].at) {
			break
		}
		xs[i], xs[p] = xs[p], xs[i]
		i = p
	}
	*h = xs
}

// pop removes and returns the head with the earliest activation time. It
// panics on an empty heap.
func (h *pendingHeap) pop() *model.Subtask {
	xs := *h
	top := xs[0].sub
	n := len(xs) - 1
	xs[0] = xs[n]
	xs[n] = pendingHead{}
	*h = xs[:n]
	for i := 0; ; {
		l, r, min := 2*i+1, 2*i+2, i
		if l < n && xs[l].at.Less(xs[min].at) {
			min = l
		}
		if r < n && xs[r].at.Less(xs[min].at) {
			min = r
		}
		if min == i {
			return top
		}
		xs[i], xs[min] = xs[min], xs[i]
		i = min
	}
}
