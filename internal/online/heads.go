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
// unregistered) is in neither and costs a scheduling decision nothing —
// not one comparison (Work, TestUnregisteredTasksCostNothing).

// Entries hold no pointer, so a sift never pays a GC write barrier: a
// ready head is its integer rank, and the head itself is found by task ID
// in a per-task table, which a decision reads without chasing the task's
// sequence. A pop sinks the root's hole along the earlier child before the
// last entry rises into it (Floyd): about log n comparisons, not 2·log n.

// readyHeap is a binary min-heap of ready heads under the engine's total
// order, prio.Order, so pop returns exactly the subtask an O(N) rescan of
// every task with prio.Order would select. An entry is the head's
// prio.Rank, computed once on entry — every quantity a policy consults
// costs integer divisions to derive, and a head is compared O(log N) times
// while it waits — so a comparison is integer compares of two 24-byte
// entries. Only a tie the rank leaves undecided (PF's b = 1 chain walk,
// PD's weight rules, a policy with no fast path) loads the two heads for
// prio.Order; under PD² and EPDF none is.
type readyHeap struct {
	pol   prio.Policy
	rank  prio.Ranker
	xs    []prio.Rank
	heads []*model.Subtask // per task ID: its head, pending or ready (setHead)
	work  Work
}

// Work counts what an executive's ready heap has done since it was built:
// a count of the engine's work per decision that, unlike a timing, host
// noise cannot move.
type Work struct {
	RankCmps int64 // entry comparisons
	Compares int64 // of those, ties only prio.Order decided
	Moves    int64 // entries written into the heap
}

// Work returns the executive's ready-heap work counter.
func (e *Executive) Work() Work { return e.ready.work }

// setHead records s as its task's head; await calls it.
func (h *readyHeap) setHead(s *model.Subtask) {
	for len(h.heads) <= s.Task.ID {
		h.heads = append(h.heads, nil)
	}
	h.heads[s.Task.ID] = s
}

func (h *readyHeap) len() int { return len(h.xs) }

func (h *readyHeap) before(a, b *prio.Rank) bool {
	h.work.RankCmps++
	if before, ok := a.Before(b); ok {
		return before
	}
	h.work.Compares++
	return prio.Order(h.pol, h.heads[a.TaskID()], h.heads[b.TaskID()])
}

// push moves task id's head onto the heap.
func (h *readyHeap) push(id int) {
	r := h.rank.Rank(h.heads[id])
	h.xs = append(h.xs, r)
	h.rise(len(h.xs)-1, &r)
}

// rise moves the hole at i up while r goes before its parent, then fills
// it with r.
func (h *readyHeap) rise(i int, r *prio.Rank) {
	xs := h.xs
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(r, &xs[p]) {
			break
		}
		xs[i] = xs[p]
		h.work.Moves++
		i = p
	}
	xs[i] = *r
	h.work.Moves++
}

// pop removes and returns the highest-priority ready head. It panics on an
// empty heap.
func (h *readyHeap) pop() *model.Subtask {
	xs := h.xs
	top := h.heads[xs[0].TaskID()]
	n := len(xs) - 1
	last := xs[n]
	h.xs = xs[:n]
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		if r := l + 1; r < n && h.before(&xs[r], &xs[l]) {
			l = r
		}
		xs[i] = xs[l]
		h.work.Moves++
		i = l
	}
	if n > 0 {
		h.rise(i, &last)
	}
	return top
}

// pendingHeap is a binary min-heap of heads that are not yet ready, keyed
// by activation time. Entries activating at the same time may pop in any
// order: the readyHeap re-orders them by priority before a decision reads
// them. Times on one grid — all of them, under full quanta — compare as
// plain integers (rat.Less's equal-denominator path).
type pendingHeap []pendingHead

type pendingHead struct {
	at   rat.Rat
	task int // task ID
}

func (h *pendingHeap) push(at rat.Rat, task int) {
	*h = append(*h, pendingHead{at, task})
	h.rise(len(*h)-1, pendingHead{at, task})
}

func (h pendingHeap) rise(i int, x pendingHead) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.at.Less(h[p].at) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the head with the earliest activation time and returns its
// task ID. It panics on an empty heap.
func (h *pendingHeap) pop() int {
	xs := *h
	top := xs[0].task
	n := len(xs) - 1
	last := xs[n]
	*h = xs[:n]
	i := 0
	for l := 1; l < n; l = 2*i + 1 {
		if r := l + 1; r < n && xs[r].at.Less(xs[l].at) {
			l = r
		}
		xs[i] = xs[l]
		i = l
	}
	if n > 0 {
		xs[:n].rise(i, last)
	}
	return top
}
