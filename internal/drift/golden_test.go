package drift_test

import (
	"bytes"
	"flag"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"testing"

	"desyncpfair/internal/drift"
	"desyncpfair/internal/gen"
	"desyncpfair/internal/prio"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/sched"
)

var update = flag.Bool("update", false, "rewrite testdata/drift.golden from this tree's output")

// TestDriftGolden pins drift.Run's full assignment list — processor, start,
// cost and decision number of every subtask, as a CRC per run — over 120
// seeded GIS systems under every policy, with the four yield models
// rotating by seed, phases on a 1/8 grid and drifts from {0, 1/200, 1/50,
// 1/20}. Every fifth seed gives all processors one phase and one drift, so
// their boundaries tie for the whole run; every seventh has no drift.
func TestDriftGolden(t *testing.T) {
	const golden = "testdata/drift.golden"
	drifts := []rat.Rat{rat.Zero, rat.New(1, 200), rat.New(1, 50), rat.New(1, 20)}
	var doc bytes.Buffer
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		q := int64(6 + rng.Intn(8))
		n := m + 1 + rng.Intn(2*m)
		ws := gen.GridWeights(rng, n, q, int64(m)*q, gen.WeightClass(int(seed)%3))
		sys := gen.System(rng, ws, gen.SystemOptions{
			Horizon:    2 * q,
			JitterProb: int(seed % 2 * 25),
			MaxJitter:  2,
			OmitProb:   int(seed % 3 * 10),
		})
		y := []sched.YieldFn{
			sched.FullCost,
			gen.UniformYield(seed, 8),
			gen.BimodalYield(seed, 50, 8),
			gen.AdversarialYield(rat.New(1, 16), nil),
		}[seed%4]
		phase := make([]rat.Rat, m)
		eps := make([]rat.Rat, m)
		for k := range phase {
			phase[k] = rat.New(int64(rng.Intn(8)), 8)
			eps[k] = drifts[rng.Intn(len(drifts))]
			if seed%5 == 0 {
				phase[k], eps[k] = phase[0], eps[0]
			}
			if seed%7 == 0 {
				eps[k] = rat.Zero
			}
		}
		fmt.Fprintf(&doc, "seed %d m %d phase %v eps %v\n", seed, m, phase, eps)
		for _, pol := range prio.All() {
			s, err := drift.Run(sys, drift.Options{M: m, Policy: pol, Yield: y, Phase: phase, Epsilon: eps})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pol.Name(), err)
			}
			h := crc32.NewIEEE()
			for _, a := range s.Assignments() {
				fmt.Fprintf(h, "%s P%d %s %s %d\n", a.Sub, a.Proc, a.Start, a.Cost, a.Decision)
			}
			fmt.Fprintf(&doc, "  %-4s n=%d crc=%08x\n", pol.Name(), len(s.Assignments()), h.Sum32())
		}
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), want) {
		got, want := bytes.Split(doc.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(want); i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("drift.Run differs from %s at line %d (go test ./internal/drift -update rewrites it; diff the file)\n got: %s\nwant: %s", golden, i+1, got[i], want[i])
			}
		}
		t.Fatalf("drift.Run differs from %s in length", golden)
	}
}
