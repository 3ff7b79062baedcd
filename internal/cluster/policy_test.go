package cluster

import (
	"fmt"
	"testing"
)

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "hash", "rendezvous"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"bogus", "rr", "round-robin", "least", "least-loaded"} {
		if _, err := PolicyByName(name); err == nil {
			t.Errorf("PolicyByName(%q) accepted; rendezvous is the only placement", name)
		}
	}
}

// TestRendezvousDeterministicAndSpread: the same id always names the same
// group, and a hundred ids leave no group of three empty.
func TestRendezvousDeterministicAndSpread(t *testing.T) {
	seen := map[int]int{}
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		g := rendezvous(id, 3)
		if g < 0 || g >= 3 {
			t.Fatalf("rendezvous(%q, 3) = %d, out of range", id, g)
		}
		if again := rendezvous(id, 3); again != g {
			t.Fatalf("rendezvous(%q) unstable: %d then %d", id, g, again)
		}
		seen[g]++
	}
	for g := 0; g < 3; g++ {
		if seen[g] == 0 {
			t.Fatalf("group %d got no tenants out of 100: %v", g, seen)
		}
	}
}

// TestRouterPlacementBalanced: every group of n holds its share of 30 000
// ids to within 5 %. Plain FNV-1a of "id/g" failed this badly — with three
// groups one held half the ids — because one id's weights differ only in
// the hash's last rounds.
func TestRouterPlacementBalanced(t *testing.T) {
	const ids = 30000
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 16} {
		held := make([]int, n)
		for i := 0; i < ids; i++ {
			held[rendezvous(fmt.Sprintf("tenant-%d", i), n)]++
		}
		share := float64(ids) / float64(n)
		for _, c := range held {
			if d := float64(c)/share - 1; d < -0.05 || d > 0.05 {
				t.Errorf("n=%d: groups hold %v ids, want each within 5%% of %.0f", n, held, share)
				break
			}
		}
	}
}

// TestRouterPlacementPinned: placement is part of the wire contract — a
// router that placed an id elsewhere would not find the tenants an older one
// created — so a few placements are pinned, ids a URL gives a meaning to
// among them.
func TestRouterPlacementPinned(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want [4]int // groups among 2, 3, 5 and 16
	}{
		{"t0", [4]int{1, 1, 3, 3}},
		{"tenant-7", [4]int{1, 1, 1, 6}},
		{"a/b", [4]int{0, 0, 0, 15}},
		{"y/z/w", [4]int{0, 0, 3, 5}},
		{"a?b", [4]int{1, 1, 4, 4}},
		{"50%", [4]int{0, 2, 3, 7}},
		{"a%2Fb", [4]int{0, 2, 2, 5}},
		{"é", [4]int{1, 1, 3, 3}},
	} {
		for i, n := range []int{2, 3, 5, 16} {
			if got := rendezvous(tc.id, n); got != tc.want[i] {
				t.Errorf("rendezvous(%q, %d) = %d, want %d", tc.id, n, got, tc.want[i])
			}
		}
	}
	if got := rendezvous("anything", 1); got != 0 {
		t.Errorf("rendezvous over one group = %d", got)
	}
}

// TestRendezvousAllocatesNothing: the router places every proxied request,
// so placement must not allocate.
func TestRendezvousAllocatesNothing(t *testing.T) {
	for _, id := range []string{"t0", "tenant-7", "a/b", "é"} {
		if a := testing.AllocsPerRun(100, func() { _ = rendezvous(id, 16) }); a != 0 {
			t.Errorf("rendezvous(%q, 16) allocates %.1f times", id, a)
		}
	}
}
