// Command experiments runs the E1–E20 validation suite of DESIGN.md §3 —
// the entries of exp.Suite — and prints one table per experiment.
// EXPERIMENTS.md records a reference run.
//
// Usage: experiments [-trials N] [-seed S] [-workers W] [-out DIR] [e1 e2 … | all]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"desyncpfair/internal/exp"
)

func main() {
	trials := flag.Int("trials", 20, "trials per experiment cell")
	seed := flag.Int64("seed", 1, "base RNG seed")
	outDir := flag.String("out", "", "also write each table to <out>/<id>.txt and its rows to <out>/<id>.csv")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = all CPUs, 1 = serial); results are identical at any setting")
	flag.Parse()
	exp.Workers = *workers
	suite, err := pick(exp.Suite(), flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, suite, *trials, *seed, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// pick returns the experiments the ids name, in suite order whatever order
// the ids come in; no id, or "all" among them, is the whole suite.
func pick(suite []exp.Experiment, ids []string) ([]exp.Experiment, error) {
	known := map[string]bool{"all": true}
	names := make([]string, len(suite))
	for i, e := range suite {
		known[e.ID], names[i] = true, e.ID
	}
	want := map[string]bool{}
	for _, id := range ids {
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (want %s|all)", id, strings.Join(names, "|"))
		}
		want[id] = true
	}
	if len(ids) == 0 || want["all"] {
		return suite, nil
	}
	var picked []exp.Experiment
	for _, e := range suite {
		if want[e.ID] {
			picked = append(picked, e)
		}
	}
	return picked, nil
}

// run prints each experiment's table to w and, when outDir is set, writes
// the table to <outDir>/<id>.txt and the typed rows to <outDir>/<id>.csv.
func run(w io.Writer, suite []exp.Experiment, trials int, seed int64, outDir string) error {
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, e := range suite {
		table, rows, err := e.Run(seed, trials)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w, table)
		if outDir == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(outDir, e.ID+".txt"), []byte(table), 0o644); err != nil {
			return err
		}
		if err := writeCSV(filepath.Join(outDir, e.ID+".csv"), rows); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(path string, rows any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := exp.WriteCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
