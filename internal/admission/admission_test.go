package admission

import (
	"reflect"
	"strings"
	"testing"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

func TestPfairExactBoundary(t *testing.T) {
	atM := []model.Weight{model.W(1, 2), model.W(1, 2), model.W(1, 2), model.W(1, 2)}
	if d := PfairSFQ(atM, 2); !d.Admitted || d.Guarantee != HardRealTime {
		t.Errorf("utilization exactly M rejected: %+v", d)
	}
	over := append(atM, model.W(1, 1000))
	if d := PfairSFQ(over, 2); d.Admitted {
		t.Errorf("utilization M + 1/1000 admitted: %+v", d)
	}
	if d := PfairDVQ(atM, 2); !d.Admitted || d.Guarantee != SoftRealTime {
		t.Errorf("DVQ guarantee wrong: %+v", d)
	}
}

func TestEPDFGuaranteeByProcessorCount(t *testing.T) {
	ws := []model.Weight{model.W(1, 2), model.W(1, 2), model.W(1, 2)}
	if d := EPDF(ws, 2); !d.Admitted || d.Guarantee != HardRealTime {
		t.Errorf("EPDF on M=2: %+v", d)
	}
	ws4 := []model.Weight{model.W(1, 2), model.W(1, 2), model.W(1, 2), model.W(1, 2), model.W(1, 2), model.W(1, 2)}
	if d := EPDF(ws4, 3); !d.Admitted || d.Guarantee != NoGuarantee {
		t.Errorf("EPDF on M=3 should admit without guarantee: %+v", d)
	}
	if d := EPDF(ws4, 2); d.Admitted {
		t.Errorf("overloaded EPDF admitted: %+v", d)
	}
}

func TestPartitionedTests(t *testing.T) {
	heavy := []model.Weight{model.W(6, 11), model.W(6, 11), model.W(6, 11)}
	if d := PartitionedEDF(heavy, 2); d.Admitted {
		t.Errorf("three 6/11 tasks on 2 procs partitioned: %+v", d)
	}
	if d := PartitionedRM(heavy, 2); d.Admitted {
		t.Errorf("RM admitted the heavy set: %+v", d)
	}
	light := []model.Weight{model.W(1, 4), model.W(1, 4), model.W(1, 4), model.W(1, 4)}
	if d := PartitionedEDF(light, 2); !d.Admitted {
		t.Errorf("light set rejected by P-EDF: %+v", d)
	}
	if d := PartitionedRM(light, 2); !d.Admitted {
		t.Errorf("light set rejected by P-RM: %+v", d)
	}
}

func TestWithOverhead(t *testing.T) {
	ws := []model.Weight{model.W(9, 10), model.W(9, 10)}
	// Without overhead: fits on 2 processors.
	if d := PfairSFQ(ws, 2); !d.Admitted {
		t.Fatalf("base set rejected: %+v", d)
	}
	// With 20% overhead: 9 × 1.2 = 10.8 → 11 > 10: infeasible weights.
	if d := WithOverhead(PfairSFQ, ws, 2, rat.New(1, 5)); d.Admitted {
		t.Errorf("overhead-inflated set admitted: %+v", d)
	}
	// With 10% overhead: 9 × 1.1 = 9.9 → 10/10 each; Σ = 2 ≤ M: admitted.
	if d := WithOverhead(PfairSFQ, ws, 2, rat.New(1, 10)); !d.Admitted {
		t.Errorf("10%% overhead set rejected: %+v", d)
	}
	if !strings.Contains(WithOverhead(PfairSFQ, ws, 2, rat.New(1, 10)).Reason, "overhead") {
		t.Error("reason should mention overhead")
	}

	// The inflation itself, seen by the test it feeds: costs round up, zero
	// overhead is the identity, and a weight pushed past 1 or a negative
	// overhead is refused before any test runs.
	for _, tc := range []struct {
		name     string
		ws       []model.Weight
		overhead rat.Rat
		want     []model.Weight // nil: refused
	}{
		{"10% rounds up", []model.Weight{model.W(2, 10), model.W(5, 10)}, rat.New(1, 10),
			[]model.Weight{model.W(3, 10), model.W(6, 10)}}, // 2.2 → 3, 5.5 → 6
		{"0 is identity", []model.Weight{model.W(2, 10), model.W(5, 10)}, rat.Zero,
			[]model.Weight{model.W(2, 10), model.W(5, 10)}},
		{"past weight 1", []model.Weight{model.W(10, 10)}, rat.New(1, 10), nil},
		{"negative overhead", []model.Weight{model.W(2, 10)}, rat.New(-1, 10), nil},
	} {
		var got []model.Weight
		record := func(ws []model.Weight, m int) Decision {
			got = ws
			return Decision{Admitted: true}
		}
		d := WithOverhead(record, tc.ws, 1, tc.overhead)
		if tc.want == nil {
			if d.Admitted || got != nil {
				t.Errorf("%s: admitted %v, test saw %v; want refused before the test", tc.name, d.Admitted, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: inflated = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestInvalidWeightsRejectedEverywhere(t *testing.T) {
	bad := []model.Weight{model.W(3, 2)}
	for _, d := range All(bad, 2) {
		if d.Admitted {
			t.Errorf("%s admitted an invalid weight", d.Scheduler)
		}
	}
}

func TestAllReturnsEveryScheduler(t *testing.T) {
	ds := All([]model.Weight{model.W(1, 2)}, 2)
	if len(ds) != 5 {
		t.Fatalf("decisions = %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Scheduler] = true
		if d.Reason == "" {
			t.Errorf("%s has empty reason", d.Scheduler)
		}
	}
	for _, want := range []string{"PD2/SFQ", "PD2/DVQ", "EPDF", "P-EDF", "P-RM"} {
		if !names[want] {
			t.Errorf("missing scheduler %s", want)
		}
	}
}

func TestGuaranteeStrings(t *testing.T) {
	if HardRealTime.String() != "hard" || NoGuarantee.String() != "none" {
		t.Error("guarantee strings wrong")
	}
	if !strings.Contains(SoftRealTime.String(), "quantum") {
		t.Error("soft guarantee should mention the quantum bound")
	}
}
