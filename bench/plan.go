package main

import (
	"fmt"
	"math/rand"

	"desyncpfair/internal/model"
)

// taskSpec is one task to register. The weight is kept as given:
// model.Weight does not normalise, so 4/8 has period 8, not 2.
type taskSpec struct {
	name string
	w    model.Weight
}

// plan is the whole life of one tenant: create, register, then rounds of
// {release the listed jobs, advance virtual time by slots}, drain, verify,
// delete. Every workload obeys the steady-state rule: a task of weight
// e/p appears in one round per p slots, so backlog never grows and the
// closing drain is O(1) periods.
type plan struct {
	id     string
	m      int
	tasks  []taskSpec // in registration order
	rounds [][]uint16 // per round: indices into tasks, in submit order
	batch  bool       // one jobs:batch per round; else single keyed submits
	slots  int64      // virtual time advanced per round
	keep   bool       // leave the tenant in place at the end (restart check)
}

// dispatches is what the tenant must have decided once drained: Σ E over
// every released job.
func (p *plan) dispatches() int64 {
	var n int64
	for _, r := range p.rounds {
		for _, ti := range r {
			n += p.tasks[ti].w.E
		}
	}
	return n
}

// stage is a set of tenants one client drives interleaved, round by round.
type stage []*plan

// workload is one generated traffic mix. clients[i] is the sequence of
// stages client i runs; the clients run concurrently, each closed loop
// (the next request goes out when the previous one is acknowledged).
type workload struct {
	name    string
	durable bool // servers run with a data dir
	routed  bool // pfair-router in front of leader + 1 follower
	follow  bool // a live dispatch-stream reader beside the writer
	restart bool // SIGKILL + restart on the same data dir after the load
	// perDispatch selects the denominator of server_cpu_us_per_op:
	// dispatches where requests are few and decisions many, else requests.
	perDispatch bool
	clients     [][]stage
}

func (w *workload) plans() []*plan {
	var out []*plan
	for _, c := range w.clients {
		for _, st := range c {
			out = append(out, st...)
		}
	}
	return out
}

var workloadNames = []string{"submit_churn", "long_tenant", "wide_sched", "stream_tail", "routed_replica"}

// routedRounds is routed_replica's rounds per tenant at scale 1; the
// compaction probe (layers.go) sizes itself against it.
const routedRounds = 2500

// baseSeconds is the run length the operation counts below are sized for
// on the reference host, bound to one CPU (pin.go); -seconds scales them
// linearly. submit_churn, long_tenant and routed_replica take about that
// long; wide_sched and stream_tail keep their whole history in memory and
// stop at about 420 MB of it, after two thirds and half the time.
const baseSeconds = 20

// generate builds the named workload. The seed drives registration order,
// in-round job order and client→tenant assignment, nothing else; scale
// multiplies the operation count (seconds/baseSeconds, and 1/4 of that
// for a traced pass).
func generate(name string, seed int64, scale float64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	n := func(base int) int {
		if v := int(float64(base)*scale + 0.5); v > 1 {
			return v
		}
		return 1
	}
	eighths := func(prefix string, count int) []taskSpec {
		ts := make([]taskSpec, count)
		for i := range ts {
			ts[i] = taskSpec{fmt.Sprintf("%s%d", prefix, i), model.W(1, 8)}
		}
		return ts
	}
	switch name {
	case "submit_churn":
		// Short-lived tenants keep state bounded, so the per-request
		// layers (client, HTTP, ring hop, WAL append + group commit) do
		// nearly all the work.
		const clients = 2
		gens := n(88) // across both clients
		if gens < clients {
			gens = clients // every client has at least one tenant to drive
		}
		w := &workload{name: name, durable: true, clients: make([][]stage, clients)}
		order := rng.Perm(gens)
		for g := 0; g < gens; g++ {
			p := &plan{id: fmt.Sprintf("churn-%d", order[g]), m: 1, tasks: eighths("t", 8), slots: 8}
			p.rounds = everyRound(rng, p.tasks, 200)
			shuffleTasks(rng, p)
			w.clients[g%clients] = append(w.clients[g%clients], stage{p})
		}
		return w, nil
	case "long_tenant":
		// One tenant for the whole run and few requests per dispatch, so
		// O(history) state does most of the work.
		p := &plan{id: "long", m: 2, tasks: eighths("t", 16), batch: true, slots: 8, keep: true}
		p.rounds = everyRound(rng, p.tasks, n(9000))
		shuffleTasks(rng, p)
		return &workload{name: name, durable: true, restart: true, perDispatch: true, clients: [][]stage{{{p}}}}, nil
	case "wide_sched":
		// N ≈ 2.7k tasks on M = 16 at full utilisation: the engine's
		// per-decision cost does most of the work; no WAL, 2 requests per
		// 128 decisions.
		p := &plan{id: "wide", m: 16, batch: true, slots: 8}
		for i, e := range []int64{4, 4, 5, 5, 6, 6, 7, 7} {
			p.tasks = append(p.tasks, taskSpec{fmt.Sprintf("h%d", i), model.W(e, 8)})
		}
		const light, phases = 2688, 32 // 2688 × 1/256: one job per 256 slots = 32 rounds
		for i := 0; i < light; i++ {
			p.tasks = append(p.tasks, taskSpec{fmt.Sprintf("l%d", i), model.W(1, 256)})
		}
		rounds := n(5200)
		p.rounds = make([][]uint16, rounds)
		for r := range p.rounds {
			var js []uint16
			for i := 0; i < 8; i++ {
				js = append(js, uint16(i))
			}
			for i := r % phases; i < light; i += phases {
				js = append(js, uint16(8+i))
			}
			rng.Shuffle(len(js), func(a, b int) { js[a], js[b] = js[b], js[a] })
			p.rounds[r] = js
		}
		shuffleTasks(rng, p)
		return &workload{name: name, perDispatch: true, clients: [][]stage{{{p}}}}, nil
	case "stream_tail":
		// Reads beside writes on one tenant's log: an attached subscriber
		// switches the loop to eager frame encoding.
		p := &plan{id: "tail", m: 8, tasks: eighths("t", 64), batch: true, slots: 8, keep: true} // kept for the replay
		p.rounds = everyRound(rng, p.tasks, n(9400))
		shuffleTasks(rng, p)
		return &workload{name: name, follow: true, perDispatch: true, clients: [][]stage{{{p}}}}, nil
	case "routed_replica":
		// submit_churn's request shape through the cluster layer: proxy
		// hop, WAL tailing and follower apply on the same two cores.
		st := stage{}
		ids := []string{"ra", "rb"}
		rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
		for _, id := range ids {
			p := &plan{id: id, m: 1, tasks: eighths("t", 8), slots: 8}
			p.rounds = everyRound(rng, p.tasks, n(routedRounds))
			shuffleTasks(rng, p)
			st = append(st, p)
		}
		return &workload{name: name, durable: true, routed: true, clients: [][]stage{{st}}}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// everyRound releases one job of every task in every round, in a
// seed-permuted order per round.
func everyRound(rng *rand.Rand, tasks []taskSpec, rounds int) [][]uint16 {
	out := make([][]uint16, rounds)
	for r := range out {
		js := make([]uint16, len(tasks))
		for i, v := range rng.Perm(len(tasks)) {
			js[i] = uint16(v)
		}
		out[r] = js
	}
	return out
}

// shuffleTasks permutes the registration order, remapping the rounds so
// they still name the same tasks.
func shuffleTasks(rng *rand.Rand, p *plan) {
	perm := rng.Perm(len(p.tasks)) // new position i holds old task perm[i]
	inv := make([]uint16, len(perm))
	ts := make([]taskSpec, len(perm))
	for i, old := range perm {
		ts[i] = p.tasks[old]
		inv[old] = uint16(i)
	}
	p.tasks = ts
	for _, r := range p.rounds {
		for i, old := range r {
			r[i] = inv[old]
		}
	}
}
