package scenario

import (
	"fmt"
	"math"
	"sort"

	"desyncpfair/internal/rat"
)

// AtDen is the arrival-time grid: sampled (float) arrival instants are
// quantized to multiples of 1/AtDen quantum before anything downstream
// sees them, so traces stay exact and platform-independent.
const AtDen = 64

// Arrival is one job arrival of the expanded workload.
type Arrival struct {
	// Seq is the arrival's index in the globally sorted sequence.
	Seq int
	// Client is the owning tenant id ("<cohort>-<k>").
	Client string
	// Task is the task name within the client.
	Task string
	// At is the arrival's virtual time on the 1/AtDen grid.
	At rat.Rat
	// Class is the client's SLO class.
	Class string
}

// ClientSetup is everything a Target needs to create one client.
type ClientSetup struct {
	ID    string
	Class string
	Tasks []TaskSpec
}

// Workload is a fully expanded scenario: the deterministic product of
// (spec, seed), ready to drive any Target.
type Workload struct {
	Spec    *Spec
	Clients []ClientSetup // in spec cohort order (what replay must preserve)
	// Arrivals is globally sorted by (At, Client, Task, sample order), the
	// order in which the runner submits — which fixes the IS offsets
	// (eq. 5) and therefore the entire downstream schedule.
	Arrivals []Arrival
}

// Generate expands a validated spec into its workload. It is a pure
// function of the spec (including its seed): per-(cohort, client, task)
// RNG streams are derived by hashing indices, not by consuming a shared
// stream, so reordering cohorts in the spec does not ripple across
// unrelated clients.
func Generate(spec *Spec) (*Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := &Workload{Spec: spec, Clients: expandClients(spec)}
	horizon := float64(spec.Horizon)
	total := 0
	next := w.Clients // each cohort's clients, in turn
	for ci := range spec.Cohorts {
		co := &spec.Cohorts[ci]
		phases, err := parsePhases(co.Phases)
		if err != nil {
			return nil, err
		}
		for k, c := range next[:co.Clients] {
			// The burst gate is per client: all of a client's tasks go
			// quiet and resume together, which is what makes the resume
			// instant a genuine burst.
			gate, err := buildGate(co.Burst, newStream(uint64(spec.Seed), uint64(ci), uint64(k), 0xb0), horizon)
			if err != nil {
				return nil, err
			}
			for ti, task := range co.Tasks {
				str := newStream(uint64(spec.Seed), uint64(ci), uint64(k), uint64(ti))
				n, err := genTask(w, co, task, c, str, gate, phases, horizon, total)
				if err != nil {
					return nil, err
				}
				total += n
			}
		}
		next = next[co.Clients:]
	}
	sortArrivals(w.Arrivals)
	for i := range w.Arrivals {
		w.Arrivals[i].Seq = i
	}
	return w, nil
}

// expandClients lists a spec's clients in cohort order, client k of
// cohort c as "<c>-<k>" in c's class (DefaultClass when it names none).
// Generate and ReconstructWorkload both take their clients from here:
// replay must preserve this order, because setup and submission order fix
// the IS offsets.
func expandClients(spec *Spec) []ClientSetup {
	var out []ClientSetup
	for i := range spec.Cohorts {
		co := &spec.Cohorts[i]
		class := co.Class
		if class == "" {
			class = DefaultClass
		}
		for k := 0; k < co.Clients; k++ {
			out = append(out, ClientSetup{
				ID: fmt.Sprintf("%s-%d", co.Name, k), Class: class, Tasks: co.Tasks,
			})
		}
	}
	return out
}

// genTask samples one task's arrival instants and appends them to the
// workload, returning how many it added.
func genTask(w *Workload, co *CohortSpec, task TaskSpec, c ClientSetup,
	str *stream, gate *gate, phases []phase, horizon float64, total int) (int, error) {
	mean := float64(task.P)
	if co.Arrival.Mean != "" {
		m, err := rat.Parse(co.Arrival.Mean)
		if err != nil {
			return 0, err
		}
		mean = m.Float64()
	}
	shape := co.Arrival.Shape
	if shape == 0 {
		shape = 1
	}
	n := 0
	t := 0.0
	for {
		gap, err := sampleGap(co.Arrival.Process, str, mean, shape)
		if err != nil {
			return n, err
		}
		// Diurnal scaling: the gap is consumed faster in high-rate phases
		// and not at all in zero-rate ones (no arrivals land there).
		t = advance(t, gap, phases, horizon)
		if t >= horizon {
			return n, nil
		}
		if gate != nil {
			t = gate.slide(t)
			if t >= horizon {
				return n, nil
			}
		}
		if total+n >= MaxArrivals {
			return n, fmt.Errorf("scenario: spec generates more than %d arrivals; shrink horizon or rates", MaxArrivals)
		}
		ticks := int64(math.Floor(t*AtDen + 0.5))
		// Rounding can push an instant just under the horizon onto it;
		// arrivals live in [0, horizon), so that one (and everything after
		// it) is cut.
		if ticks >= w.Spec.Horizon*AtDen {
			return n, nil
		}
		// Seq carries the generation order until Generate renumbers after
		// the global sort; it is the stable tiebreak for equal instants.
		w.Arrivals = append(w.Arrivals, Arrival{
			Seq: total + n, Client: c.ID, Task: task.Name, At: rat.New(ticks, AtDen), Class: c.Class,
		})
		n++
	}
}

// sampleGap draws one inter-arrival gap with the given mean.
func sampleGap(process string, str *stream, mean, shape float64) (float64, error) {
	switch process {
	case ProcPeriodic:
		return mean, nil
	case ProcPoisson:
		return mean * str.exp(), nil
	case ProcGamma:
		// Gamma(k, θ) has mean kθ; θ = mean/k keeps the requested mean at
		// every shape. Small k ⇒ heavy clumping, large k ⇒ near-periodic.
		return mean / shape * str.gamma(shape), nil
	case ProcWeibull:
		// Scale λ = mean / Γ(1 + 1/k) gives mean exactly `mean`.
		return mean / math.Gamma(1+1/shape) * str.weibull(shape), nil
	default:
		return 0, fmt.Errorf("scenario: unknown arrival process %q", process)
	}
}

// phase is a parsed diurnal segment.
type phase struct {
	dur  float64
	rate float64
}

func parsePhases(specs []PhaseSpec) ([]phase, error) {
	out := make([]phase, 0, len(specs))
	for _, p := range specs {
		d, err := rat.Parse(p.Duration)
		if err != nil {
			return nil, err
		}
		out = append(out, phase{dur: d.Float64(), rate: p.Rate})
	}
	return out, nil
}

// advance moves t forward by a gap measured in *unscaled* arrival-process
// time, stretching it through the diurnal schedule: while inside a phase
// of rate ρ > 0 the gap is consumed ρ times faster (higher rate ⇒ denser
// arrivals), and zero-rate phases are stepped over without consuming any
// gap-budget — no arrivals land in them. Once t reaches horizon the rest
// of the gap is irrelevant (the arrival is cut), so it returns early —
// which also bounds the loop for adversarial gap/rate combinations.
func advance(t, gap float64, phases []phase, horizon float64) float64 {
	if len(phases) == 0 {
		return t + gap
	}
	cycle := 0.0
	for _, p := range phases {
		cycle += p.dur
	}
	remaining := gap
	for remaining > 0 && t < horizon {
		// Locate t's phase and the time left inside it.
		pos := math.Mod(t, cycle)
		if pos < 0 {
			pos = 0
		}
		var cur phase
		left := 0.0
		acc := 0.0
		for _, p := range phases {
			if pos < acc+p.dur {
				cur = p
				left = acc + p.dur - pos
				break
			}
			acc += p.dur
		}
		if left <= 0 { // float edge: nudge past the boundary
			t = math.Nextafter(t, math.Inf(1))
			continue
		}
		if cur.rate <= 0 {
			t += left
			continue
		}
		// Inside this phase, `need` unscaled time passes per real time
		// unit times rate.
		if consume := left * cur.rate; consume < remaining {
			remaining -= consume
			t += left
		} else {
			t += remaining / cur.rate
			remaining = 0
		}
	}
	return t
}

// gate is a precomputed on/off burst schedule: sorted, disjoint off
// windows within the horizon.
type gate struct {
	off [][2]float64
}

// buildGate samples alternating on/off dwell times over the horizon.
func buildGate(b *BurstSpec, str *stream, horizon float64) (*gate, error) {
	if b == nil {
		return nil, nil
	}
	on, err := rat.Parse(b.On)
	if err != nil {
		return nil, err
	}
	off, err := rat.Parse(b.Off)
	if err != nil {
		return nil, err
	}
	onMean, offMean := on.Float64(), off.Float64()
	g := &gate{}
	t := 0.0
	for t < horizon {
		t += onMean * str.exp() // on dwell
		if t >= horizon {
			break
		}
		d := offMean * str.exp() // off dwell
		g.off = append(g.off, [2]float64{t, t + d})
		t += d
		if len(g.off) > 4*MaxArrivals {
			return nil, fmt.Errorf("scenario: burst schedule exceeds %d windows", 4*MaxArrivals)
		}
	}
	return g, nil
}

// slide moves an arrival instant landing inside an off window to the
// window's end — the bursty resume.
func (g *gate) slide(t float64) float64 {
	if g == nil {
		return t
	}
	// Binary search for the last window starting at or before t; the
	// windows are sorted and disjoint.
	i := sort.Search(len(g.off), func(i int) bool { return g.off[i][0] > t })
	if i > 0 && t < g.off[i-1][1] {
		return g.off[i-1][1]
	}
	return t
}

// sortArrivals orders arrivals by (At, Client, Task, generation order) —
// a total order, so the result is deterministic regardless of sort
// algorithm internals.
func sortArrivals(a []Arrival) {
	sort.Slice(a, func(i, j int) bool {
		if c := a[i].At.Cmp(a[j].At); c != 0 {
			return c < 0
		}
		if a[i].Client != a[j].Client {
			return a[i].Client < a[j].Client
		}
		if a[i].Task != a[j].Task {
			return a[i].Task < a[j].Task
		}
		return a[i].Seq < a[j].Seq
	})
}
