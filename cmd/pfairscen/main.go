// Command pfairscen runs declarative scenarios: a JSON spec describing
// client cohorts (arrival processes, on/off bursts, diurnal phases, SLO
// classes) is expanded by a seeded deterministic generator, executed
// against the in-process executive (or a live pfaird with -addr), and
// summarized as per-class tardiness plus a Jain fairness index. Every run
// can be recorded as a CRC-framed NDJSON trace; a recorded trace can be
// replayed bit-identically (-replay verifies the dispatch sequence
// matches) and re-dispatched under alternate priority policies
// (-counterfactual) with a quantum-by-quantum decision diff.
//
// Usage:
//
// A capacity sweep (-sweep-m lo:hi) re-dispatches the same workload at
// every processor count in the range and reports, per policy, the minimal
// M that admits it and the minimal M that also keeps tardiness within the
// one-quantum bound — for PD² the two coincide (Theorem 3); for the
// heuristics the gap is the capacity price of the simpler policy.
//
//	pfairscen -spec scenario.json -record run.trace
//	pfairscen -replay run.trace -counterfactual EPDF,PF
//	pfairscen -replay run.trace -counterfactual EPDF,PD2 -sweep-m 1:8
//	pfairscen -spec scenario.json -addr http://localhost:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"desyncpfair/internal/client"
	"desyncpfair/internal/scenario"
	"desyncpfair/internal/server"
)

type config struct {
	spec           string // scenario spec path (JSON)
	replay         string // recorded trace path to replay instead of -spec
	record         string // write the run's trace here
	counterfactual string // comma-separated policies to re-dispatch under
	addr           string // live pfaird base URL; empty = in-process executive
	seed           int64  // overrides the spec's seed when set
	seedSet        bool
	metricsOut     string // write Prometheus exposition here ("-" = stdout)
	sweepM         string // "lo:hi" capacity sweep range
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.spec, "spec", "", "scenario spec (JSON) to generate and run")
	flag.StringVar(&cfg.replay, "replay", "", "recorded trace to replay (verifies the dispatch sequence) instead of -spec")
	flag.StringVar(&cfg.record, "record", "", "record the run as a CRC-framed NDJSON trace at this path")
	flag.StringVar(&cfg.counterfactual, "counterfactual", "", "comma-separated policies (EPDF, PF, PD, PD2) to re-dispatch the workload under and diff")
	flag.StringVar(&cfg.addr, "addr", "", "pfaird base URL (empty: run against the in-process executive)")
	flag.Int64Var(&cfg.seed, "seed", 0, "override the spec's seed")
	flag.StringVar(&cfg.metricsOut, "metrics-out", "", "write the report as a Prometheus exposition to this path (\"-\" = stdout)")
	flag.StringVar(&cfg.sweepM, "sweep-m", "", "re-dispatch the workload at every M in lo:hi and report the minimal M per policy (policies from -counterfactual, else the run's own)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.seedSet = true
		}
	})

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pfairscen: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config, out io.Writer) error {
	// Every flag is checked before the run: a bad policy name or range must
	// not first run the spec, which with -addr creates its tenants on the
	// live pfaird.
	var policies []string
	for _, p := range strings.Split(cfg.counterfactual, ",") {
		if p = strings.TrimSpace(p); p != "" {
			if _, err := server.PolicyByName(p); err != nil {
				return err
			}
			policies = append(policies, p)
		}
	}
	var lo, hi int
	if cfg.sweepM != "" {
		var err error
		if lo, hi, err = parseSweepRange(cfg.sweepM); err != nil {
			return err
		}
	}
	res, err := produce(cfg, out)
	if err != nil {
		return err
	}
	res.Report.WriteText(out)
	if cfg.record != "" {
		data, err := scenario.EncodeTrace(res.Records)
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.record, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace       %s (%d records, %d bytes)\n", cfg.record, len(res.Records), len(data))
	}
	if cfg.metricsOut != "" {
		if err := writeMetrics(cfg.metricsOut, res.Report, out); err != nil {
			return err
		}
	}
	if cfg.sweepM == "" {
		return runCounterfactuals(policies, res.Records, out)
	}
	if len(policies) == 0 {
		policies = []string{res.Report.Policy}
	}
	return runSweeps(lo, hi, policies, res.Records, out)
}

// runSweeps evaluates each policy at every M in the -sweep-m range,
// printing the minimal feasible M and the minimal M that also meets the
// one-quantum tardiness bound. With -counterfactual the sweep covers
// those policies; otherwise the run's own policy.
func runSweeps(lo, hi int, policies []string, recs []scenario.Record, out io.Writer) error {
	for _, p := range policies {
		sw, err := scenario.SweepM(recs, p, lo, hi)
		if err != nil {
			return err
		}
		feas, bound := "none in range", "none in range"
		if sw.MinFeasibleM > 0 {
			feas = fmt.Sprintf("M=%d", sw.MinFeasibleM)
		}
		if sw.MinBoundM > 0 {
			bound = fmt.Sprintf("M=%d", sw.MinBoundM)
		}
		fmt.Fprintf(out, "sweep-m %-5s %d:%d  minimal feasible %s, minimal 1-quantum %s\n",
			sw.Policy, lo, hi, feas, bound)
		for _, pt := range sw.Points {
			if !pt.Feasible {
				fmt.Fprintf(out, "  M=%-3d infeasible\n", pt.M)
				continue
			}
			mark := " "
			if pt.MeetsBound {
				mark = "*"
			}
			fmt.Fprintf(out, "  M=%-3d max tard %-8s violations %-6d %s\n",
				pt.M, pt.MaxTardiness, pt.Violations, mark)
		}
	}
	return nil
}

// parseSweepRange parses "lo:hi" (or a single "m") into a range
// scenario.SweepM takes.
func parseSweepRange(s string) (lo, hi int, err error) {
	los, his, found := strings.Cut(s, ":")
	if !found {
		his = los
	}
	if lo, err = strconv.Atoi(strings.TrimSpace(los)); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep-m %q: %v", s, err)
	}
	if hi, err = strconv.Atoi(strings.TrimSpace(his)); err != nil {
		return 0, 0, fmt.Errorf("bad -sweep-m %q: %v", s, err)
	}
	return lo, hi, scenario.CheckSweepRange(lo, hi)
}

// produce yields the run's result: a replayed trace, or a fresh run of a
// spec against the chosen target.
func produce(cfg config, out io.Writer) (*scenario.Result, error) {
	switch {
	case cfg.replay != "" && cfg.spec != "":
		return nil, fmt.Errorf("-spec and -replay are mutually exclusive")
	case cfg.replay != "":
		f, err := os.Open(cfg.replay)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := scenario.ReadTrace(f)
		if err != nil {
			return nil, err
		}
		res, err := scenario.Replay(recs)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "replay      %s verified: dispatch sequence identical\n", cfg.replay)
		return res, nil
	case cfg.spec != "":
		data, err := os.ReadFile(cfg.spec)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.ParseSpec(data)
		if err != nil {
			return nil, err
		}
		if cfg.seedSet {
			spec.Seed = cfg.seed
		}
		w, err := scenario.Generate(spec)
		if err != nil {
			return nil, err
		}
		return scenario.Run(w, target(cfg))
	default:
		return nil, fmt.Errorf("one of -spec or -replay is required")
	}
}

func target(cfg config) scenario.Target {
	if cfg.addr == "" {
		return scenario.NewExecTarget()
	}
	return &scenario.HTTPTarget{Ctx: context.Background(), C: client.New(cfg.addr, nil)}
}

func writeMetrics(path string, rep *scenario.Report, out io.Writer) error {
	if path == "-" {
		return rep.WriteMetrics(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteMetrics(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "metrics     %s\n", path)
	return nil
}

// runCounterfactuals re-dispatches the recorded workload under each named
// policy and prints where (which quanta) the decisions diverged.
func runCounterfactuals(policies []string, recs []scenario.Record, out io.Writer) error {
	for _, p := range policies {
		cf, err := scenario.Rerun(recs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "counterfactual %-5s max tard %s quanta, jain %.6f, %d quanta differ\n",
			cf.Policy, cf.Result.Report.MaxTardiness, cf.Result.Report.Jain, len(cf.Diffs))
		for i, d := range cf.Diffs {
			if i == 8 {
				fmt.Fprintf(out, "  … %d more differing quanta\n", len(cf.Diffs)-i)
				break
			}
			fmt.Fprintf(out, "  quantum %-5d recorded-only %v, %s-only %v\n", d.Slot, d.OnlyRecorded, cf.Policy, d.OnlyRerun)
		}
	}
	return nil
}
