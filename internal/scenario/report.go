package scenario

import (
	"fmt"
	"io"
	"sort"
	"strconv"

	"desyncpfair/internal/obs"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// ClassReport aggregates one SLO class: every dispatch of every client in
// the class, its tardiness distribution on the quanta buckets, and how
// often the class target was exceeded.
type ClassReport struct {
	Class        string
	SLO          rat.Rat
	Dispatches   int64
	Violations   int64
	MaxTardiness rat.Rat
	Hist         *obs.Histogram
}

// Report is the rollup of one scenario run.
type Report struct {
	Name   string
	Seed   int64
	M      int
	Policy string

	Arrivals     int64
	Dispatches   int64
	MaxTardiness rat.Rat
	// Jain is the Jain fairness index (Σx)²/(n·Σx²) over per-client mean
	// deadline margin max(0, deadline+1−finish): 1 when every client gets
	// the same average slack, → 1/n when one client hoards all of it.
	// Clients with no dispatches are excluded (no service, no share).
	Jain    float64
	Classes []ClassReport // sorted by class name
}

// BuildReport aggregates the per-client dispatch logs of a run.
func BuildReport(w *Workload, disp map[string][]server.DispatchEvent) *Report {
	rep := &Report{
		Name:         w.Spec.Name,
		Seed:         w.Spec.Seed,
		M:            w.Spec.M,
		Policy:       effectivePolicy(w.Spec),
		Arrivals:     int64(len(w.Arrivals)),
		MaxTardiness: rat.Zero,
	}
	byClass := map[string]*ClassReport{}
	for _, c := range w.Clients {
		if byClass[c.Class] == nil {
			byClass[c.Class] = &ClassReport{
				Class:        c.Class,
				SLO:          w.Spec.ClassTarget(c.Class),
				MaxTardiness: rat.Zero,
				Hist:         obs.NewHistogram(obs.QuantaBuckets),
			}
		}
	}
	var margins []float64
	for _, c := range w.Clients {
		evs := disp[c.ID]
		cr := byClass[c.Class]
		marginSum := 0.0
		for _, ev := range evs {
			tard := mustRat(ev.Tardiness)
			finish := mustRat(ev.Finish)
			rep.Dispatches++
			cr.Dispatches++
			cr.Hist.Observe(tard.Float64())
			if tard.Cmp(cr.MaxTardiness) > 0 {
				cr.MaxTardiness = tard
			}
			if tard.Cmp(rep.MaxTardiness) > 0 {
				rep.MaxTardiness = tard
			}
			if tard.Cmp(cr.SLO) > 0 {
				cr.Violations++
			}
			if m := rat.FromInt(ev.Deadline + 1).Sub(finish); m.Sign() > 0 {
				marginSum += m.Float64()
			}
		}
		if len(evs) > 0 {
			margins = append(margins, marginSum/float64(len(evs)))
		}
	}
	rep.Jain = jain(margins)
	for _, cr := range byClass {
		rep.Classes = append(rep.Classes, *cr)
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })
	return rep
}

// jain computes the Jain fairness index of xs; the empty and all-zero
// cases are perfectly fair by convention.
func jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// mustRat parses a rat string the run itself produced; the strings come
// from rat.String, so a parse failure is a program bug, not input error.
func mustRat(s string) rat.Rat {
	r, err := rat.Parse(s)
	if err != nil {
		panic(fmt.Sprintf("scenario: internal rat %q: %v", s, err))
	}
	return r
}

func effectivePolicy(spec *Spec) string {
	if spec.Policy == "" {
		return "PD2"
	}
	return spec.Policy
}

func formatJain(j float64) string { return strconv.FormatFloat(j, 'f', 6, 64) }

// endRecord renders the report as the trace's end-summary record.
func (r *Report) endRecord() Record {
	rec := Record{
		Kind:         KindEnd,
		Arrivals:     r.Arrivals,
		Dispatches:   r.Dispatches,
		MaxTardiness: r.MaxTardiness.String(),
		Jain:         formatJain(r.Jain),
	}
	for _, c := range r.Classes {
		rec.Classes = append(rec.Classes, ClassSumm{
			Class:        c.Class,
			SLO:          c.SLO.String(),
			Dispatches:   c.Dispatches,
			Violations:   c.Violations,
			MaxTardiness: c.MaxTardiness.String(),
		})
	}
	return rec
}

// WriteText renders the human summary.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "scenario    %s\n", r.Name)
	fmt.Fprintf(w, "seed        %d\n", r.Seed)
	fmt.Fprintf(w, "procs       %d\n", r.M)
	fmt.Fprintf(w, "policy      %s\n", r.Policy)
	fmt.Fprintf(w, "arrivals    %d\n", r.Arrivals)
	fmt.Fprintf(w, "dispatches  %d\n", r.Dispatches)
	fmt.Fprintf(w, "max tard    %s quanta\n", r.MaxTardiness)
	fmt.Fprintf(w, "jain index  %s\n", formatJain(r.Jain))
	for _, c := range r.Classes {
		fmt.Fprintf(w, "class %-14s slo=%-5s dispatches=%-8d violations=%-6d max=%s\n",
			c.Class, c.SLO, c.Dispatches, c.Violations, c.MaxTardiness)
	}
}

// WriteMetrics renders the report in Prometheus exposition format — the
// same families and shapes the daemon's /metrics uses, checked by the
// same parser — and writes it to w in one Write.
func (r *Report) WriteMetrics(w io.Writer) error {
	b := obs.AppendHeader(nil, "scenario_arrivals_total", "Job arrivals generated by the scenario.", "counter")
	b = obs.AppendInt(b, "scenario_arrivals_total", nil, r.Arrivals)
	b = obs.AppendHeader(b, "scenario_dispatches_total", "Subtask dispatches, by SLO class.", "counter")
	for _, c := range r.Classes {
		b = obs.AppendInt(b, "scenario_dispatches_total", classLabels(c), c.Dispatches)
	}
	b = obs.AppendHeader(b, "scenario_slo_violations_total", "Dispatches whose tardiness exceeded the class target.", "counter")
	for _, c := range r.Classes {
		b = obs.AppendInt(b, "scenario_slo_violations_total", classLabels(c), c.Violations)
	}
	b = obs.AppendHeader(b, "scenario_tardiness_quanta", "Dispatch tardiness in quanta, by SLO class.", "histogram")
	for _, c := range r.Classes {
		b = obs.AppendHistogram(b, "scenario_tardiness_quanta", classLabels(c), c.Hist.Snapshot())
	}
	b = obs.AppendHeader(b, "scenario_jain_index", "Jain fairness index of per-client mean deadline margin.", "gauge")
	// The gauge prints fixed to six places, as the trace's end record does,
	// not in AppendFloat's shortest form.
	b = append(append(append(b, "scenario_jain_index "...), formatJain(r.Jain)...), '\n')
	_, err := w.Write(b)
	return err
}

func classLabels(c ClassReport) []obs.Label {
	return []obs.Label{{Name: "class", Value: c.Class}}
}
