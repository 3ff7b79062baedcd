package baseline

import (
	"math"
	"testing"

	"desyncpfair/internal/model"
)

func TestLiuLaylandBound(t *testing.T) {
	if got := LiuLaylandBound(1); got != 1 {
		t.Errorf("n=1 bound = %f, want 1", got)
	}
	if got := LiuLaylandBound(2); math.Abs(got-0.8284) > 1e-3 {
		t.Errorf("n=2 bound = %f, want ≈0.828", got)
	}
	// Monotone decreasing toward ln 2.
	prev := LiuLaylandBound(1)
	for n := 2; n <= 30; n++ {
		cur := LiuLaylandBound(n)
		if cur >= prev {
			t.Fatalf("bound not decreasing at n=%d", n)
		}
		prev = cur
	}
	if prev < math.Ln2-1e-9 {
		t.Errorf("bound fell below ln 2: %f", prev)
	}
	if LiuLaylandBound(0) != 0 {
		t.Error("n=0 should be 0")
	}
}

func TestGlobalRMSchedulesLowUtilization(t *testing.T) {
	ws := []model.Weight{model.W(1, 4), model.W(1, 4), model.W(1, 2)}
	r := GlobalRM(ws, 2, 8)
	if r.Misses != 0 {
		t.Errorf("misses = %d", r.Misses)
	}
}

func TestPartitionFFDRMAdmission(t *testing.T) {
	// Two tasks of utilization 0.4 fit one processor under Liu–Layland for
	// n=2 (bound ≈ 0.828); a third does not (3×0.4 = 1.2 > 0.78).
	ws := []model.Weight{model.W(2, 5), model.W(2, 5), model.W(2, 5)}
	bins, err := PartitionFFDRM(ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins[0])+len(bins[1]) != 3 {
		t.Errorf("not all tasks placed: %v", bins)
	}
	if len(bins[0]) > 2 || len(bins[1]) > 2 {
		t.Errorf("Liu–Ayland cap violated: %v", bins)
	}
	// Infeasible under the bound on one processor.
	if _, err := PartitionFFDRM(ws, 1); err == nil {
		t.Error("three 0.4-tasks on one processor should fail Liu–Layland")
	}
}

func TestPartitionedRMZeroMisses(t *testing.T) {
	ws := []model.Weight{model.W(1, 4), model.W(1, 2), model.W(1, 4), model.W(1, 2)}
	r, err := PartitionedRM(ws, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Misses != 0 {
		t.Errorf("misses = %d", r.Misses)
	}
	if r.Jobs == 0 {
		t.Error("no jobs simulated")
	}
}

// Partitioned RM's admissible utilization collapses toward ~50–69% while
// Pfair schedules 100%: the Sec. 1 comparison, static-priority edition.
func TestPartitionedRMUtilizationCap(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		ws := make([]model.Weight, m+1)
		for i := range ws {
			ws[i] = model.W(6, 11) // just over 1/2 each
		}
		if _, err := PartitionFFDRM(ws, m); err == nil {
			t.Errorf("M=%d: %d tasks of weight 6/11 should not partition under RM", m, m+1)
		}
	}
}
