package online_test

import (
	"fmt"
	"math/rand"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/online"
	"desyncpfair/internal/rat"
)

// TestWideRoundAllocs pins what a forgetting executive allocates in the
// steady state of wide_sched's system — 2696 tasks on M = 16 at full
// utilisation, eight of weight 4/8…7/8 and 2688 of 1/256 — where a round
// is a 92-job release (the eight heavy tasks and one phase of 84 light
// ones) and the run over the next 8 slots, 128 decisions. The subtasks a
// release needs are the ones the run before cut (the free list), so after
// warm-up a round allocates next to nothing, not one object per subtask.
// The bound is ≤, not =: counts move with the Go version.
func TestWideRoundAllocs(t *testing.T) {
	ex := online.New(16, nil)
	ex.ForgetHistory()
	var heavy, light []*model.Task
	for i, e := range []int64{4, 4, 5, 5, 6, 6, 7, 7} {
		tk, err := ex.Register(fmt.Sprintf("h%d", i), model.W(e, 8))
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, tk)
	}
	const phases = 32
	for i := 0; i < 2688; i++ {
		tk, err := ex.Register(fmt.Sprintf("l%d", i), model.W(1, 256))
		if err != nil {
			t.Fatal(err)
		}
		light = append(light, tk)
	}
	rng := rand.New(rand.NewSource(1))
	rounds := make([][]*model.Task, phases)
	for r := range rounds {
		rounds[r] = append(rounds[r], heavy...)
		for i := r; i < len(light); i += phases {
			rounds[r] = append(rounds[r], light[i])
		}
		rng.Shuffle(len(rounds[r]), func(x, y int) { rounds[r][x], rounds[r][y] = rounds[r][y], rounds[r][x] })
	}
	n := 0
	round := func() {
		now := ex.Now()
		for _, tk := range rounds[n%phases] {
			if err := ex.SubmitJob(tk, now); err != nil {
				t.Fatal(err)
			}
		}
		d0 := ex.Schedule().Len()
		if err := ex.Run(now.Add(rat.FromInt(8)), nil, nil); err != nil {
			t.Fatal(err)
		}
		if d := ex.Schedule().Len() - d0; d != 128 {
			t.Fatalf("round %d: %d decisions, want 128", n, d)
		}
		n++
	}
	for n < 64 {
		round()
	}
	allocs := testing.AllocsPerRun(64, round)
	if allocs > 2 {
		t.Fatalf("a 92-job release and its 128 decisions allocate %.1f times, want ≤ 2", allocs)
	}
	t.Logf("%.1f allocations per round", allocs)
}
