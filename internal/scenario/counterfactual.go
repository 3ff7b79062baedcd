package scenario

import (
	"fmt"
	"sort"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// ReconstructWorkload rebuilds a workload from a recorded trace: the
// clients come from the embedded spec, the arrivals from the arrival
// records themselves (NOT regenerated — a replay must reproduce what was
// recorded even if the generator's sampling ever changes). It also
// returns the recorded per-client dispatch logs, in recorded order.
func ReconstructWorkload(recs []Record) (*Workload, map[string][]server.DispatchEvent, error) {
	if err := checkShape(recs); err != nil {
		return nil, nil, err
	}
	spec := recs[0].Spec
	if err := spec.Validate(); err != nil {
		return nil, nil, fmt.Errorf("scenario: trace header: %w", err)
	}
	w := &Workload{Spec: spec, Clients: expandClients(spec)}
	known := map[string]bool{}
	for _, c := range w.Clients {
		known[c.ID] = true
	}
	disp := map[string][]server.DispatchEvent{}
	for i, rec := range recs[1:] {
		switch rec.Kind {
		case KindArrival:
			if !known[rec.Client] {
				return nil, nil, fmt.Errorf("scenario: trace record %d: arrival for unknown client %s", i+2, rec.Client)
			}
			at, err := rat.Parse(rec.At)
			if err != nil {
				return nil, nil, fmt.Errorf("scenario: trace record %d: bad arrival time: %w", i+2, err)
			}
			w.Arrivals = append(w.Arrivals, Arrival{
				Seq: len(w.Arrivals), Client: rec.Client, Task: rec.Task, At: at, Class: rec.Class,
			})
		case KindDispatch:
			if !known[rec.Client] {
				return nil, nil, fmt.Errorf("scenario: trace record %d: dispatch for unknown client %s", i+2, rec.Client)
			}
			disp[rec.Client] = append(disp[rec.Client], dispatchEvent(rec))
		}
	}
	return w, disp, nil
}

// Replay re-runs a recorded trace against the in-process executive under
// the recorded policy and verifies the replay reproduces the recorded
// dispatch sequence exactly, client by client, decision by decision. The
// returned result's trace bytes equal the recording's (minus any
// recording-side truncation): a trace is a complete, closed description
// of its run.
func Replay(recs []Record) (*Result, error) {
	w, recorded, err := ReconstructWorkload(recs)
	if err != nil {
		return nil, err
	}
	res, err := redispatch(w, w.Spec.Policy, w.Spec.M)
	if err != nil {
		return nil, err
	}
	if err := sameDispatches(recorded, res.Dispatches); err != nil {
		return nil, fmt.Errorf("scenario: replay diverged from recording: %w", err)
	}
	return res, nil
}

// redispatch runs a reconstructed workload in-process under a copy of its
// spec that names the given policy and processor count, so the run's own
// trace header names what actually produced it. Replay, Rerun and every
// SweepM point go through here: whatever else the spec says reaches each
// re-run unchanged.
func redispatch(w *Workload, policy string, m int) (*Result, error) {
	alt := *w.Spec
	alt.Policy, alt.M = policy, m
	return Run(&Workload{Spec: &alt, Clients: w.Clients, Arrivals: w.Arrivals}, NewExecTarget())
}

// sameDispatches demands the two per-client logs be identical, reporting
// the first divergence.
func sameDispatches(want, got map[string][]server.DispatchEvent) error {
	ids := map[string]bool{}
	for id := range want {
		ids[id] = true
	}
	for id := range got {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	for _, id := range sorted {
		a, b := want[id], got[id]
		if len(a) != len(b) {
			return fmt.Errorf("client %s: %d recorded dispatches, %d replayed", id, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("client %s decision %d: recorded %+v, replayed %+v", id, i, a[i], b[i])
			}
		}
	}
	return nil
}

// Counterfactual is a recorded run re-dispatched under another policy.
type Counterfactual struct {
	Policy string // the policy's canonical name
	Result *Result
	// Diffs lists, quantum by quantum, where the counterfactual schedule
	// departed from the recording. Empty means the policies made identical
	// decisions on this workload.
	Diffs []SlotDiff
}

// Rerun replays a recorded workload under an alternate priority policy,
// named as the service names it ("" is PD²), and diffs the two schedules.
func Rerun(recs []Record, policy string) (*Counterfactual, error) {
	p, err := server.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	w, recorded, err := ReconstructWorkload(recs)
	if err != nil {
		return nil, err
	}
	res, err := redispatch(w, p.Name(), w.Spec.M)
	if err != nil {
		return nil, err
	}
	diffs, err := DiffDispatches(recorded, res.Dispatches)
	if err != nil {
		return nil, err
	}
	return &Counterfactual{Policy: p.Name(), Result: res, Diffs: diffs}, nil
}

// SlotDiff is one integral quantum where two schedules disagree about
// which subtasks run. Entries are "client/task.index", sorted.
type SlotDiff struct {
	Slot         int64
	OnlyRecorded []string
	OnlyRerun    []string
}

// DiffDispatches compares two dispatch maps quantum by quantum: each
// dispatch is charged to the integral slot containing its start, and a
// slot is reported when the (client, task, index) sets differ. Processor
// numbers are deliberately ignored — Pfair correctness is about which
// subtasks get a quantum, not which identical processor serves them.
func DiffDispatches(rec, alt map[string][]server.DispatchEvent) ([]SlotDiff, error) {
	a, err := bySlot(rec)
	if err != nil {
		return nil, err
	}
	b, err := bySlot(alt)
	if err != nil {
		return nil, err
	}
	slots := map[int64]bool{}
	for s := range a {
		slots[s] = true
	}
	for s := range b {
		slots[s] = true
	}
	order := make([]int64, 0, len(slots))
	for s := range slots {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	var diffs []SlotDiff
	for _, s := range order {
		onlyA := minus(a[s], b[s])
		onlyB := minus(b[s], a[s])
		if len(onlyA) > 0 || len(onlyB) > 0 {
			diffs = append(diffs, SlotDiff{Slot: s, OnlyRecorded: onlyA, OnlyRerun: onlyB})
		}
	}
	return diffs, nil
}

func bySlot(disp map[string][]server.DispatchEvent) (map[int64]map[string]bool, error) {
	out := map[int64]map[string]bool{}
	for client, evs := range disp {
		for _, ev := range evs {
			start, err := rat.Parse(ev.Start)
			if err != nil {
				return nil, fmt.Errorf("scenario: client %s dispatch %d: bad start: %w", client, ev.Seq, err)
			}
			slot := start.Floor()
			if out[slot] == nil {
				out[slot] = map[string]bool{}
			}
			out[slot][fmt.Sprintf("%s/%s.%d", client, ev.Task, ev.Index)] = true
		}
	}
	return out, nil
}

func minus(a, b map[string]bool) []string {
	var out []string
	for k := range a {
		if !b[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
