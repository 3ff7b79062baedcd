// Package cluster turns single-node pfaird into a replicated, routed
// service: a Follower tails a leader's journal over the replication
// endpoints (internal/server) and can be promoted on failure, and a
// Router fronts several leader groups, placing each tenant on the group
// a rendezvous hash of its id names. The paper's desynchronized model is
// what makes this cheap — tenants share no time base, so a tenant's group
// can be a pure function of its id, and an entire group's schedule
// replays deterministically from its journal.
package cluster

import (
	"fmt"
	"strconv"
)

// Rendezvous names the router's one placement rule. It carries nothing:
// the type remains, with PolicyByName and RouterOptions.Policy, only so
// that callers written when placement was pluggable still compile.
type Rendezvous struct{}

// PolicyByName accepts the names rendezvous placement answers to — "",
// "rendezvous" and "hash" — and refuses every other.
func PolicyByName(name string) (Rendezvous, error) {
	switch name {
	case "", "rendezvous", "hash":
		return Rendezvous{}, nil
	default:
		return Rendezvous{}, fmt.Errorf("cluster: unknown placement policy %q (want rendezvous)", name)
	}
}

// rendezvous places a tenant among n groups by highest-random-weight
// hashing: every router maps an id to the same group with no shared state.
// The weight of (tenant, group) hashes the id with the group's index, so
// the order of the groups is part of placement: adding or removing the
// last group moves only that group's tenants, and removing any other
// renumbers — and so moves tenants of — the groups after it. Ties break
// toward the higher index.
func rendezvous(id string, n int) int {
	best, bestW := 0, uint64(0)
	for g := 0; g < n; g++ {
		if w := rendezvousWeight(id, g); g == 0 || w >= bestW {
			best, bestW = g, w
		}
	}
	return best
}

// rendezvousWeight is FNV-1a of "id/group" through murmur3's 64-bit
// finalizer. The weights of one id differ, before the finalizer, only in
// the hash's last rounds, which skews the argmax badly (with three groups
// one of them took half the ids); the finalizer spreads them. The hash is
// written out, byte by byte, so placing a request allocates nothing.
func rendezvousWeight(id string, group int) uint64 {
	const prime = 1099511628211
	w := uint64(14695981039346656037) // FNV-1a's offset basis
	for i := 0; i < len(id); i++ {
		w = (w ^ uint64(id[i])) * prime
	}
	w = (w ^ '/') * prime
	var digits [20]byte
	for _, d := range strconv.AppendUint(digits[:0], uint64(group), 10) {
		w = (w ^ uint64(d)) * prime
	}
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	w *= 0xc4ceb9fe1a85ec53
	w ^= w >> 33
	return w
}
