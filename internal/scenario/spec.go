// Package scenario turns pfaird (and the in-process executive) into a
// scheduling-policy lab: a declarative workload spec describes multi-client
// cohorts with stochastic inter-arrival processes, on/off bursts, diurnal
// phase schedules and per-class SLO targets; a seeded generator expands the
// spec into a deterministic arrival sequence; a runner drives either the
// in-process executive or a live pfaird through internal/client; and every
// run emits a CRC-framed NDJSON trace that can be replayed bit-identically
// or fed to a counterfactual engine that re-dispatches the same arrivals
// under a different priority policy and diffs decisions quantum-by-quantum.
//
// The paper's tardiness bound (Theorem 3) is only interesting under
// adversarial arrival patterns; this package is how those patterns are
// produced, recorded, and re-litigated. Everything is exact: arrival times
// are rationals on a fixed 1/64-quantum grid, virtual-time detail travels
// as rat strings, and the trace contains no wall-clock timestamps — which
// is what makes "same seed + same spec ⇒ byte-identical trace" a testable
// property rather than an aspiration.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"desyncpfair/internal/model"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// Resource caps enforced by Validate and Generate so adversarial specs
// (fuzzed or user-supplied) error out instead of exhausting memory. They
// are generous for real experiments and tiny next to what a hostile spec
// could otherwise request.
const (
	MaxCohorts        = 64
	MaxClientsPerCoho = 256
	MaxTasksPerClient = 64
	MaxHorizon        = 1 << 16
	MaxArrivals       = 200_000
	MaxPhases         = 32
)

// DefaultClass is the SLO class of cohorts that name none. Its default
// target is Theorem 3's bound of one quantum.
const DefaultClass = "default"

// Spec is a declarative scenario: who arrives, how, and what they are
// owed. The zero value is invalid; build specs in Go or decode them from
// JSON with ParseSpec.
type Spec struct {
	// Name labels the scenario in traces and reports.
	Name string `json:"name"`
	// Seed drives every random draw. Same seed + same spec ⇒ the same
	// arrival sequence, bit for bit.
	Seed int64 `json:"seed"`
	// M is the processor count of every client's executive/tenant.
	M int `json:"m"`
	// Policy is the recording priority policy, named as the service names
	// it (server.PolicyByName: "PD2" when empty; also "PD", "PF", "EPDF").
	Policy string `json:"policy,omitempty"`
	// Horizon bounds arrival times: jobs arrive at virtual times in
	// [0, Horizon) quanta.
	Horizon int64 `json:"horizon"`
	// Classes declares the SLO classes cohorts may reference. A cohort
	// with an empty class lands in DefaultClass (target: 1 quantum).
	Classes []ClassSpec `json:"classes,omitempty"`
	// Cohorts are the workload: each expands to Clients independent
	// tenants running the same task mix under the same arrival process.
	Cohorts []CohortSpec `json:"cohorts"`
}

// ClassSpec is one SLO class: a named per-subtask tardiness target.
type ClassSpec struct {
	Name string `json:"name"`
	// MaxTardiness is the class's per-subtask tardiness target in quanta
	// (exact rat string, default "1" — Theorem 3's bound). Dispatches
	// exceeding it count as SLO violations in the report.
	MaxTardiness string `json:"maxTardiness,omitempty"`
}

// CohortSpec is a group of identically-shaped clients.
type CohortSpec struct {
	Name string `json:"name"`
	// Clients is how many independent clients (tenants) the cohort
	// expands to; each gets its own derived RNG streams.
	Clients int `json:"clients"`
	// Class names the cohort's SLO class ("" = DefaultClass).
	Class string `json:"class,omitempty"`
	// Tasks is the task mix registered for every client of the cohort.
	Tasks []TaskSpec `json:"tasks"`
	// Arrival is the per-task job inter-arrival process.
	Arrival ArrivalSpec `json:"arrival"`
	// Burst, when set, gates arrivals through an on/off (interrupted)
	// process per client: arrivals landing in an off window slide to the
	// window's end, which is what produces the arrival bursts at
	// on-transitions.
	Burst *BurstSpec `json:"burst,omitempty"`
	// Phases, when set, is a cyclic diurnal schedule of rate multipliers:
	// during a phase, inter-arrival means are divided by Rate. A Rate of
	// 0 silences the phase entirely.
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// TaskSpec is one recurrent task of weight E/P.
type TaskSpec struct {
	Name string `json:"name"`
	E    int64  `json:"e"`
	P    int64  `json:"p"`
}

// Arrival process names.
const (
	ProcPeriodic = "periodic"
	ProcPoisson  = "poisson"
	ProcGamma    = "gamma"
	ProcWeibull  = "weibull"
)

// ArrivalSpec describes the job inter-arrival process of each task.
type ArrivalSpec struct {
	// Process is one of "periodic", "poisson", "gamma", "weibull".
	Process string `json:"process"`
	// Mean is the mean inter-arrival gap in quanta (exact rat string).
	// Empty means the task's period P — the open-loop rate that exactly
	// matches the task's weight.
	Mean string `json:"mean,omitempty"`
	// Shape is the gamma/weibull shape parameter k (default 1, which
	// degenerates both to the exponential). Ignored by periodic/poisson.
	Shape float64 `json:"shape,omitempty"`
}

// BurstSpec is a two-state Markov-modulated gate: on and off dwell times
// are exponential with the given means (quanta, exact rat strings).
type BurstSpec struct {
	On  string `json:"on"`
	Off string `json:"off"`
}

// PhaseSpec is one segment of a cyclic diurnal schedule.
type PhaseSpec struct {
	// Duration is the phase length in quanta (exact rat string).
	Duration string `json:"duration"`
	// Rate multiplies the cohort's arrival rate during the phase. 0
	// silences it; 1 is neutral.
	Rate float64 `json:"rate"`
}

// ParseSpec decodes and validates a JSON spec. Unknown fields are
// rejected, so a typo fails loudly instead of silently meaning defaults.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// Trailing garbage after the object is a malformed spec, not an
	// extension point.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parse spec: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// EncodeSpec renders a spec as canonical indented JSON (the format the
// golden traces embed and ParseSpec round-trips).
func EncodeSpec(s *Spec) ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Validate checks the spec is well-formed, within the resource caps, and
// feasible: every client's Σ e/p must be ≤ M, since otherwise admission
// would reject tasks and the scenario could not run as written.
func (s *Spec) Validate() error {
	if s.M < 1 {
		return fmt.Errorf("scenario: m = %d, want ≥ 1", s.M)
	}
	if s.Horizon < 1 || s.Horizon > MaxHorizon {
		return fmt.Errorf("scenario: horizon %d outside [1, %d]", s.Horizon, MaxHorizon)
	}
	if _, err := server.PolicyByName(s.Policy); err != nil {
		return err
	}
	classes := map[string]bool{DefaultClass: true}
	for i, c := range s.Classes {
		if c.Name == "" {
			return fmt.Errorf("scenario: class %d has no name", i)
		}
		if classes[c.Name] && c.Name != DefaultClass {
			return fmt.Errorf("scenario: duplicate class %q", c.Name)
		}
		classes[c.Name] = true
		if c.MaxTardiness != "" {
			tar, err := rat.Parse(c.MaxTardiness)
			if err != nil {
				return fmt.Errorf("scenario: class %q maxTardiness: %v", c.Name, err)
			}
			if tar.Sign() < 0 {
				return fmt.Errorf("scenario: class %q maxTardiness %s is negative", c.Name, c.MaxTardiness)
			}
		}
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("scenario: no cohorts")
	}
	if len(s.Cohorts) > MaxCohorts {
		return fmt.Errorf("scenario: %d cohorts exceeds the cap of %d", len(s.Cohorts), MaxCohorts)
	}
	seenCohort := map[string]bool{}
	for i := range s.Cohorts {
		if err := s.validateCohort(&s.Cohorts[i], classes); err != nil {
			return err
		}
		if seenCohort[s.Cohorts[i].Name] {
			return fmt.Errorf("scenario: duplicate cohort %q", s.Cohorts[i].Name)
		}
		seenCohort[s.Cohorts[i].Name] = true
	}
	return nil
}

func (s *Spec) validateCohort(c *CohortSpec, classes map[string]bool) error {
	if c.Name == "" {
		return fmt.Errorf("scenario: cohort has no name")
	}
	if c.Clients < 1 || c.Clients > MaxClientsPerCoho {
		return fmt.Errorf("scenario: cohort %q has %d clients, want 1..%d", c.Name, c.Clients, MaxClientsPerCoho)
	}
	if c.Class != "" && !classes[c.Class] {
		return fmt.Errorf("scenario: cohort %q references undeclared class %q", c.Name, c.Class)
	}
	if len(c.Tasks) == 0 || len(c.Tasks) > MaxTasksPerClient {
		return fmt.Errorf("scenario: cohort %q has %d tasks, want 1..%d", c.Name, len(c.Tasks), MaxTasksPerClient)
	}
	seenTask := map[string]bool{}
	for _, task := range c.Tasks {
		if task.Name == "" {
			return fmt.Errorf("scenario: cohort %q has an unnamed task", c.Name)
		}
		if seenTask[task.Name] {
			return fmt.Errorf("scenario: cohort %q has duplicate task %q", c.Name, task.Name)
		}
		seenTask[task.Name] = true
		w := model.W(task.E, task.P)
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario: cohort %q task %q: %v", c.Name, task.Name, err)
		}
		// Cap P so window arithmetic over the horizon stays far from
		// overflow even under fuzzed inputs.
		if task.P > MaxHorizon {
			return fmt.Errorf("scenario: cohort %q task %q period %d exceeds %d", c.Name, task.Name, task.P, MaxHorizon)
		}
	}
	if util := utilization(c.Tasks); !model.Feasible(util, s.M) {
		return fmt.Errorf("scenario: cohort %q client utilization %s exceeds M = %d (admission would reject)",
			c.Name, util, s.M)
	}
	return validateArrival(c)
}

// utilization is one client's Σ e/p over its tasks — the Σwt that
// admission holds to ≤ M.
func utilization(tasks []TaskSpec) rat.Rat {
	util := rat.Zero
	for _, t := range tasks {
		util = util.Add(model.W(t.E, t.P).Rat())
	}
	return util
}

func validateArrival(c *CohortSpec) error {
	a := c.Arrival
	switch a.Process {
	case ProcPeriodic, ProcPoisson:
	case ProcGamma, ProcWeibull:
		if a.Shape != 0 && (!isFinite(a.Shape) || a.Shape <= 0) {
			return fmt.Errorf("scenario: cohort %q %s shape %v, want > 0", c.Name, a.Process, a.Shape)
		}
	default:
		return fmt.Errorf("scenario: cohort %q has unknown arrival process %q", c.Name, a.Process)
	}
	if a.Mean != "" {
		mean, err := rat.Parse(a.Mean)
		if err != nil {
			return fmt.Errorf("scenario: cohort %q arrival mean: %v", c.Name, err)
		}
		if mean.Sign() <= 0 {
			return fmt.Errorf("scenario: cohort %q arrival mean %s, want > 0", c.Name, a.Mean)
		}
	}
	if b := c.Burst; b != nil {
		for _, d := range []struct{ field, v string }{{"on", b.On}, {"off", b.Off}} {
			mean, err := rat.Parse(d.v)
			if err != nil {
				return fmt.Errorf("scenario: cohort %q burst %s: %v", c.Name, d.field, err)
			}
			if mean.Sign() <= 0 {
				return fmt.Errorf("scenario: cohort %q burst %s %s, want > 0", c.Name, d.field, d.v)
			}
		}
	}
	if len(c.Phases) > MaxPhases {
		return fmt.Errorf("scenario: cohort %q has %d phases, cap is %d", c.Name, len(c.Phases), MaxPhases)
	}
	anyOn := len(c.Phases) == 0
	for i, ph := range c.Phases {
		dur, err := rat.Parse(ph.Duration)
		if err != nil {
			return fmt.Errorf("scenario: cohort %q phase %d duration: %v", c.Name, i, err)
		}
		if dur.Sign() <= 0 {
			return fmt.Errorf("scenario: cohort %q phase %d duration %s, want > 0", c.Name, i, ph.Duration)
		}
		if !isFinite(ph.Rate) || ph.Rate < 0 {
			return fmt.Errorf("scenario: cohort %q phase %d rate %v, want finite ≥ 0", c.Name, i, ph.Rate)
		}
		if ph.Rate > 0 {
			anyOn = true
		}
	}
	if !anyOn {
		return fmt.Errorf("scenario: cohort %q has phases but every rate is 0", c.Name)
	}
	return nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// ClassTarget returns the SLO tardiness target of class (DefaultClass
// semantics included): the declared MaxTardiness, or 1 quantum.
func (s *Spec) ClassTarget(class string) rat.Rat {
	for _, c := range s.Classes {
		if c.Name == class && c.MaxTardiness != "" {
			tar, err := rat.Parse(c.MaxTardiness)
			if err == nil {
				return tar
			}
		}
	}
	return rat.One
}
