// Command bench is the repository's benchmark: it starts pfaird (and
// pfair-router + a follower) as separate processes on loopback, drives
// them over HTTP with seeded closed-loop load, checks the outputs, and
// prints every metric by name and unit. README.md in this directory has
// the workloads, the metric definitions and the layer predictions;
// ../BENCHMARK.json fixes which metrics are gated and by how much.
//
// Run it through run.sh, which builds the three binaries first:
//
//	bash bench/run.sh --workload submit_churn --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, untraced
//	bash bench/run.sh --trace 1 --trace-out /tmp/spans.json --workload wide_sched
//	bash bench/run.sh --selfcheck
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(repo string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// resultLine is the last line of standard output, the form the driver
// reads.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type config struct {
	repo, binDir, workDir string
	seed                  int64
	seconds               float64
	trace                 int
	traceOut              string
}

func main() {
	pinned := pinToOneCPU()
	var cfg config
	var workloadName string
	var selfcheck bool
	flag.StringVar(&workloadName, "workload", "all", "workload to run: one of "+strings.Join(workloadNames, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: registration order, in-batch job order, client→tenant assignment")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "run length the operation counts are scaled to (0 = run_seconds of BENCHMARK.json)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced pass: per-layer metrics at a quarter of the operation count")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write the traced pass's spans to this file (keep it outside the repository)")
	flag.StringVar(&cfg.repo, "repo", "..", "repository root (holds BENCHMARK.json)")
	flag.StringVar(&cfg.binDir, "bin", "", "directory holding the pfaird and pfair-router binaries (run.sh builds them)")
	flag.StringVar(&cfg.workDir, "work", "", "directory for temporary data dirs (default: the system temp dir)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the suite twice on two seeds and fail if any end-to-end metric differs by more than its bound")
	flag.Parse()

	bf, err := loadBenchmarkFile(cfg.repo)
	if err != nil {
		fatal(err)
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(bf.RunSeconds)
	}
	if cfg.binDir == "" {
		fatal(fmt.Errorf("-bin is required: run this through bench/run.sh, which builds pfaird and pfair-router"))
	}
	L := newProcLauncher(cfg.binDir)

	// Servers die with us: on a signal, kill every process group we
	// started and remove what set-up created, then exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		L.killAll()
	}()

	printEnv(cfg, pinned)
	code := 0
	switch {
	case selfcheck:
		code = runSelfcheck(ctx, L, bf, cfg)
	case workloadName == "all":
		for _, name := range workloadNames {
			if !runOne(ctx, L, bf, cfg, name) {
				code = 1
			}
		}
	default:
		if !runOne(ctx, L, bf, cfg, workloadName) {
			code = 1
		}
	}
	L.killAll()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printEnv(cfg config, pinned string) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.repo, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	work := cfg.workDir
	if work == "" {
		work = os.TempDir()
	}
	// nproc is read after pinning: it is the one CPU the run is bound to.
	fmt.Printf("env: nproc=%d pinned_cpu=%s GOMAXPROCS=%d go=%s commit=%s work_dir_fs=%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), pinned, runtime.GOMAXPROCS(0), runtime.Version(), commit, fsType(work), cfg.seed, cfg.seconds, cfg.trace)
}

// measure runs one workload once and returns every metric it produced.
func measure(ctx context.Context, L launcher, cfg config, name string) (*pass, error) {
	scale := cfg.seconds / baseSeconds
	if cfg.trace != 0 {
		return tracedPass(ctx, L, cfg, name, scale/4)
	}
	w, err := generate(name, cfg.seed, scale)
	if err != nil {
		return nil, err
	}
	// A run sets up for 1.5 s; a scaled-down run (the smoke test) for less.
	return runHTTP(ctx, L, w, runOpts{workDir: cfg.workDir, setups: 200, setupFor: 1.5 * min(1, scale)})
}

// runOne measures one workload and prints it: a human-readable block with
// everything measured, then the driver's JSON object on the last line.
func runOne(ctx context.Context, L launcher, bf *benchmarkFile, cfg config, name string) bool {
	ps, err := measure(ctx, L, cfg, name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return false
	}
	defs := bf.EndToEnd
	if cfg.trace != 0 {
		defs = bf.PerLayer
	}
	line, missing := report(os.Stdout, name, ps, defs, cfg.trace == 0)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: no value for %v\n", name, missing)
		return false
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	return line.Correct
}

// report prints the pass and builds its result line from the metrics defs
// names. With strict set (the end-to-end list) every metric must have been
// measured; otherwise a per-layer metric the workload does not exercise
// reads 0.
func report(out io.Writer, name string, ps *pass, defs []metricDef, strict bool) (resultLine, []string) {
	fmt.Fprintf(out, "workload %s: attempted=%d failed=%d\n", name, ps.attempted, ps.failed)
	for _, n := range ps.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	if len(ps.errs) > 0 {
		fmt.Fprintf(out, "  FAILED: %s\n", ps.describeErrors(5))
	}
	names := make([]string, 0, len(ps.m))
	for n := range ps.m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", n, ps.m[n], units[n])
	}
	line := resultLine{
		Correct:   ps.failed == 0,
		Attempted: ps.attempted,
		Failed:    ps.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := ps.m[d.Name]
		if !ok && strict {
			missing = append(missing, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return line, missing
}
