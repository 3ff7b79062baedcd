package admission_test

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/model"
	"desyncpfair/internal/sfq"
)

// The admission tests must be sound: anything PfairSFQ admits is in fact
// scheduled by PD² without misses.
func TestPfairAdmissionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(6))
		n := m + 1 + rng.Intn(2*m)
		if int64(n) > int64(m)*q {
			continue
		}
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.MixedWeights)
		if d := admission.PfairSFQ(ws, m); !d.Admitted {
			t.Fatalf("full-utilization set rejected: %+v", d)
		}
		sys := model.Periodic(ws, 2*q)
		s, err := sfq.Run(sys, sfq.Options{M: m})
		if err != nil {
			t.Fatal(err)
		}
		if s.MissCount() != 0 {
			t.Fatalf("admitted set missed deadlines")
		}
	}
}
