package scenario

import (
	"reflect"
	"strings"
	"testing"

	"desyncpfair/internal/rat"
)

func validSpec() *Spec {
	return &Spec{
		Name:    "t",
		Seed:    7,
		M:       2,
		Horizon: 16,
		Classes: []ClassSpec{{Name: "gold", MaxTardiness: "0"}},
		Cohorts: []CohortSpec{
			{
				Name:    "web",
				Clients: 2,
				Class:   "gold",
				Tasks:   []TaskSpec{{Name: "a", E: 1, P: 4}},
				Arrival: ArrivalSpec{Process: ProcPoisson, Mean: "5"},
				Burst:   &BurstSpec{On: "4", Off: "2"},
				Phases:  []PhaseSpec{{Duration: "8", Rate: 1}, {Duration: "8", Rate: 0}},
			},
			{
				Name:    "batch",
				Clients: 1,
				Tasks:   []TaskSpec{{Name: "b", E: 2, P: 5}},
				Arrival: ArrivalSpec{Process: ProcGamma, Mean: "6", Shape: 0.5},
			},
		},
	}
}

func TestSpecRoundTrip(t *testing.T) {
	want := validSpec()
	data, err := EncodeSpec(want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the spec:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // substring of the error
	}{
		{"garbage", "not json", "parse spec"},
		{"unknown field", `{"name":"x","seed":1,"m":1,"horizon":4,"bogus":1,"cohorts":[]}`, "bogus"},
		{"trailing data", `{"name":"x","seed":1,"m":1,"horizon":4,"cohorts":[{"name":"c","clients":1,"tasks":[{"name":"a","e":1,"p":2}],"arrival":{"process":"periodic"}}]}{}`, "trailing"},
		{"no cohorts", `{"name":"x","m":1,"horizon":4}`, "no cohorts"},
	}
	for _, tc := range cases {
		_, err := ParseSpec([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"m zero", func(s *Spec) { s.M = 0 }, "m = 0"},
		{"horizon zero", func(s *Spec) { s.Horizon = 0 }, "horizon"},
		{"horizon cap", func(s *Spec) { s.Horizon = MaxHorizon + 1 }, "horizon"},
		{"bad policy", func(s *Spec) { s.Policy = "FIFO" }, "unknown policy"},
		{"unnamed class", func(s *Spec) { s.Classes[0].Name = "" }, "no name"},
		{"dup class", func(s *Spec) { s.Classes = append(s.Classes, ClassSpec{Name: "gold"}) }, "duplicate class"},
		{"negative slo", func(s *Spec) { s.Classes[0].MaxTardiness = "-1" }, "negative"},
		{"undeclared class", func(s *Spec) { s.Cohorts[1].Class = "platinum" }, "undeclared class"},
		{"dup cohort", func(s *Spec) { s.Cohorts[1].Name = "web" }, "duplicate cohort"},
		{"zero clients", func(s *Spec) { s.Cohorts[0].Clients = 0 }, "clients"},
		{"client cap", func(s *Spec) { s.Cohorts[0].Clients = MaxClientsPerCoho + 1 }, "clients"},
		{"no tasks", func(s *Spec) { s.Cohorts[0].Tasks = nil }, "tasks"},
		{"dup task", func(s *Spec) {
			s.Cohorts[0].Tasks = append(s.Cohorts[0].Tasks, TaskSpec{Name: "a", E: 1, P: 8})
		}, "duplicate task"},
		{"bad weight", func(s *Spec) { s.Cohorts[0].Tasks[0] = TaskSpec{Name: "a", E: 5, P: 4} }, "task"},
		{"period cap", func(s *Spec) { s.Cohorts[0].Tasks[0] = TaskSpec{Name: "a", E: 1, P: MaxHorizon + 1} }, "period"},
		{"overloaded client", func(s *Spec) {
			s.M = 1
			s.Cohorts[0].Tasks = []TaskSpec{{Name: "a", E: 3, P: 4}, {Name: "b", E: 3, P: 4}}
		}, "utilization"},
		{"bad process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "pareto" }, "arrival process"},
		{"bad mean", func(s *Spec) { s.Cohorts[0].Arrival.Mean = "zero" }, "mean"},
		{"nonpositive mean", func(s *Spec) { s.Cohorts[0].Arrival.Mean = "0" }, "mean"},
		{"negative shape", func(s *Spec) { s.Cohorts[1].Arrival.Shape = -2 }, "shape"},
		{"bad burst", func(s *Spec) { s.Cohorts[0].Burst = &BurstSpec{On: "0", Off: "1"} }, "burst"},
		{"bad phase duration", func(s *Spec) { s.Cohorts[0].Phases[0].Duration = "0" }, "duration"},
		{"negative rate", func(s *Spec) { s.Cohorts[0].Phases[0].Rate = -1 }, "rate"},
		{"all phases silent", func(s *Spec) {
			s.Cohorts[0].Phases = []PhaseSpec{{Duration: "4", Rate: 0}}
		}, "every rate is 0"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestClassTarget(t *testing.T) {
	s := validSpec()
	if got := s.ClassTarget("gold"); got.Sign() != 0 {
		t.Fatalf("gold target = %s, want 0", got)
	}
	if got := s.ClassTarget(DefaultClass); !got.Equal(rat.One) {
		t.Fatalf("default target = %s, want 1", got)
	}
}

// FuzzScenarioSpec: any input either parses into a spec that validates,
// round-trips through EncodeSpec, and generates without panicking — or
// errors cleanly. Panics and resource blowups are the bugs hunted here.
func FuzzScenarioSpec(f *testing.F) {
	seed, err := EncodeSpec(validSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"name":"x","seed":3,"m":1,"horizon":8,"cohorts":[{"name":"c","clients":1,"tasks":[{"name":"a","e":1,"p":2}],"arrival":{"process":"weibull","shape":0.4}}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return // malformed input must error, never panic
		}
		out, err := EncodeSpec(spec)
		if err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("encoded spec failed to re-parse: %v", err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("spec round trip diverged:\n1st %+v\n2nd %+v", spec, again)
		}
		// Generation must terminate (the caps bound the work) and its
		// outcome must be deterministic in shape.
		w, err := Generate(spec)
		if err != nil {
			return // over-cap specs error cleanly
		}
		for i, a := range w.Arrivals {
			if a.Seq != i {
				t.Fatalf("arrival %d has Seq %d", i, a.Seq)
			}
			if a.At.Sign() < 0 || !a.At.Less(rat.FromInt(spec.Horizon)) {
				t.Fatalf("arrival %d at %s outside [0, %d)", i, a.At, spec.Horizon)
			}
		}
	})
}
