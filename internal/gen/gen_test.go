package gen

import (
	"math/rand"
	"testing"

	"desyncpfair/internal/admission"
	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
)

func TestGridWeightsSumExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(10)
		q := int64(4 + rng.Intn(13))
		m := int64(1 + rng.Intn(4))
		sum := m * q
		if sum < int64(n) || m > int64(n) {
			continue
		}
		for _, class := range []WeightClass{MixedWeights, LightWeights, HeavyWeights} {
			ws := GridWeights(rng, n, q, sum, class)
			total := rat.Zero
			for _, w := range ws {
				if err := w.Validate(); err != nil {
					t.Fatalf("invalid weight %v: %v", w, err)
				}
				total = total.Add(w.Rat())
			}
			if !total.Equal(rat.FromInt(m)) {
				t.Fatalf("class %v: total = %s, want %d", class, total, m)
			}
		}
	}
}

func TestGridWeightsClassPreference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// With plenty of headroom, class constraints are satisfiable and must hold.
	ws := GridWeights(rng, 8, 12, 2*12, LightWeights) // util 2 over 8 tasks: avg 1/4
	for _, w := range ws {
		if w.IsHeavy() {
			t.Errorf("light class produced heavy weight %v", w)
		}
	}
	ws = GridWeights(rng, 3, 12, 2*12, HeavyWeights) // util 2 over 3 tasks
	for _, w := range ws {
		if !w.IsHeavy() {
			t.Errorf("heavy class produced light weight %v", w)
		}
	}
}

func TestGridWeightsPanicsWhenInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for sum > n*q")
		}
	}()
	GridWeights(rng, 2, 4, 100, MixedWeights)
}

func TestVariedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, class := range []WeightClass{MixedWeights, LightWeights, HeavyWeights} {
		for _, w := range VariedWeights(rng, 50, 16, class) {
			if err := w.Validate(); err != nil {
				t.Fatalf("invalid weight: %v", err)
			}
			if class == LightWeights && w.IsHeavy() {
				t.Errorf("light class produced %v", w)
			}
			if class == HeavyWeights && !w.IsHeavy() {
				t.Errorf("heavy class produced %v", w)
			}
		}
	}
}

func TestSystemPeriodicMatchesModelPeriodic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := []model.Weight{model.W(1, 2), model.W(3, 4)}
	got := System(rng, ws, SystemOptions{Horizon: 8})
	want := model.Periodic(ws, 8)
	if got.NumSubtasks() != want.NumSubtasks() {
		t.Fatalf("subtask counts differ: %d vs %d", got.NumSubtasks(), want.NumSubtasks())
	}
	for ti, task := range got.Tasks {
		gs, wsub := got.Subtasks(task), want.Subtasks(want.Tasks[ti])
		for k := range gs {
			if gs[k].Index != wsub[k].Index || gs[k].Theta != 0 || gs[k].Elig != wsub[k].Elig {
				t.Errorf("subtask %d of task %d differs", k, ti)
			}
		}
	}
}

func TestSystemISAndGISAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ws := VariedWeights(rng, 10, 12, MixedWeights)
	for trial := 0; trial < 50; trial++ {
		sys := System(rng, ws, SystemOptions{
			Horizon:      40,
			JitterProb:   30,
			MaxJitter:    3,
			OmitProb:     20,
			EarlyRelease: 2,
		})
		if err := sys.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid system: %v", trial, err)
		}
	}
}

func TestSystemGISOmitsIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ws := []model.Weight{model.W(9, 10)}
	sys := System(rng, ws, SystemOptions{Horizon: 200, OmitProb: 50})
	seq := sys.Subtasks(sys.Tasks[0])
	if len(seq) == 0 {
		t.Fatal("no subtasks generated")
	}
	gap := false
	for k := 1; k < len(seq); k++ {
		if seq[k].Index > seq[k-1].Index+1 {
			gap = true
		}
	}
	if !gap {
		t.Error("OmitProb 50 produced no index gaps over 200 slots")
	}
}

func TestYieldDeterminismAndRange(t *testing.T) {
	sys := model.Periodic([]model.Weight{model.W(3, 4), model.W(1, 2)}, 40)
	for _, y := range []struct {
		name string
		fn   func() func(*model.Subtask) rat.Rat
	}{
		{"uniform", func() func(*model.Subtask) rat.Rat { return UniformYield(42, 16) }},
		{"bimodal", func() func(*model.Subtask) rat.Rat { return BimodalYield(42, 70, 16) }},
	} {
		a, b := y.fn(), y.fn()
		for _, s := range sys.All() {
			ca, cb := a(s), b(s)
			if !ca.Equal(cb) {
				t.Errorf("%s: nondeterministic cost for %s", y.name, s)
			}
			if ca.Sign() <= 0 || rat.One.Less(ca) {
				t.Errorf("%s: cost %s outside (0,1]", y.name, ca)
			}
		}
	}
}

func TestUniformYieldSpreads(t *testing.T) {
	sys := model.Periodic([]model.Weight{model.W(9, 10)}, 400)
	y := UniformYield(1, 4)
	counts := map[string]int{}
	for _, s := range sys.All() {
		counts[y(s).String()]++
	}
	for _, v := range []string{"1/4", "1/2", "3/4", "1"} {
		if counts[v] == 0 {
			t.Errorf("value %s never drawn (counts %v)", v, counts)
		}
	}
}

func TestAdversarialYield(t *testing.T) {
	sys := model.Periodic([]model.Weight{model.W(1, 2), model.W(1, 3)}, 12)
	delta := rat.New(1, 64)
	y := AdversarialYield(delta, func(s *model.Subtask) bool { return s.Task.ID == 0 })
	for _, s := range sys.All() {
		want := rat.One
		if s.Task.ID == 0 {
			want = rat.One.Sub(delta)
		}
		if got := y(s); !got.Equal(want) {
			t.Errorf("cost(%s) = %s, want %s", s, got, want)
		}
	}
	yAll := AdversarialYield(delta, nil)
	if got := yAll(sys.All()[0]); !got.Equal(rat.One.Sub(delta)) {
		t.Error("nil victim should select all")
	}
}

func TestAdversarialYieldPanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("δ = 1 should panic (cost 0)")
		}
	}()
	AdversarialYield(rat.One, nil)
}

// System names its tasks with model.TaskName: letters for the first 26,
// then T<k>.
func TestTaskNames(t *testing.T) {
	ws := make([]model.Weight, 261)
	for i := range ws {
		ws[i] = model.W(1, 2)
	}
	sys := System(rand.New(rand.NewSource(1)), ws, SystemOptions{Horizon: 2})
	for k, task := range sys.Tasks {
		if got, want := task.String(), model.TaskName(k); got != want {
			t.Fatalf("task %d named %q, want %q", k, got, want)
		}
	}
	if sys.Tasks[0].String() != "A" || sys.Tasks[25].String() != "Z" {
		t.Error("letter names wrong")
	}
	if sys.Tasks[26].String() != "T26" || sys.Tasks[260].String() != "T260" {
		t.Errorf("numeric names wrong: %s %s", sys.Tasks[26], sys.Tasks[260])
	}
}

// Overhead inflation of generated weight sets, done by admission (the one
// copy): every cost rounds up to ⌈e·(1+o)⌉ over the same period, zero
// overhead is the identity, and a set with a cost pushed past its period or
// a negative overhead is refused before the test runs.
func TestInflateWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		ws := VariedWeights(rng, 1+rng.Intn(8), 12, MixedWeights)
		overhead := rat.New(rng.Int63n(5), 10)
		var got []model.Weight
		record := func(in []model.Weight, m int) admission.Decision {
			got = in
			return admission.Decision{Admitted: true}
		}
		d := admission.WithOverhead(record, ws, 1, overhead)
		fits := true
		for _, w := range ws {
			if rat.One.Add(overhead).Mul(rat.FromInt(w.E)).Ceil() > w.P {
				fits = false
			}
		}
		if !fits {
			if d.Admitted || got != nil {
				t.Fatalf("%v at %s overhead: admitted %v, test saw %v; want refused", ws, overhead, d.Admitted, got)
			}
			continue
		}
		if len(got) != len(ws) {
			t.Fatalf("%v at %s overhead: test saw %v", ws, overhead, got)
		}
		for i, w := range ws {
			want := model.W(rat.One.Add(overhead).Mul(rat.FromInt(w.E)).Ceil(), w.P)
			if got[i] != want {
				t.Fatalf("%v at %s overhead: weight %d inflated to %v, want %v", ws, overhead, i, got[i], want)
			}
			if overhead.Sign() == 0 && got[i] != w {
				t.Fatalf("zero overhead changed %v to %v", w, got[i])
			}
		}
	}
	ws := VariedWeights(rng, 4, 12, MixedWeights)
	if d := admission.WithOverhead(admission.PfairSFQ, ws, 4, rat.New(-1, 10)); d.Admitted {
		t.Error("negative overhead accepted")
	}
}

func TestUUniFastGridSumsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		q := int64(4 + rng.Intn(20))
		m := int64(1 + rng.Intn(4))
		sum := m * q
		if sum < int64(n) || m > int64(n) {
			continue
		}
		ws := UUniFastGrid(rng, n, q, sum)
		total := rat.Zero
		for _, w := range ws {
			if err := w.Validate(); err != nil {
				t.Fatalf("invalid weight %v: %v", w, err)
			}
			total = total.Add(w.Rat())
		}
		if !total.Equal(rat.FromInt(m)) {
			t.Fatalf("trial %d: total %s, want %d", trial, total, m)
		}
	}
}

func TestUUniFastGridSpread(t *testing.T) {
	// UUniFast should produce genuinely varied weights, not near-uniform
	// ones: over many draws with util 2 across 8 tasks on a /64 grid, the
	// largest and smallest task weights should differ substantially.
	rng := rand.New(rand.NewSource(10))
	varied := 0
	for trial := 0; trial < 50; trial++ {
		ws := UUniFastGrid(rng, 8, 64, 2*64)
		min, max := ws[0].E, ws[0].E
		for _, w := range ws {
			if w.E < min {
				min = w.E
			}
			if w.E > max {
				max = w.E
			}
		}
		if max >= 3*min {
			varied++
		}
	}
	if varied < 25 {
		t.Errorf("only %d/50 draws showed a 3× weight spread", varied)
	}
}

func TestUUniFastGridPanicsWhenInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	UUniFastGrid(rng, 2, 4, 100)
}
