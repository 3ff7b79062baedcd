package main

import (
	"context"
	"fmt"
	"os"
)

// runSelfcheck is the tool behind the acceptance criterion "two sets of
// runs of the same code agree within the benchmark's own bounds": it runs
// the untraced suite twice, each set on two seeds, and compares the sets'
// medians for every end-to-end metric on every workload against the bound
// BENCHMARK.json fixes. The sets' runs alternate, so a slow spell of the
// host falls on both. It returns the process exit code.
func runSelfcheck(ctx context.Context, L launcher, bf *benchmarkFile, cfg config) int {
	cfg.trace = 0
	seeds := []int64{cfg.seed, cfg.seed + 1}
	// sets[set][workload][metric] → one value per seed
	sets := [2]map[string]map[string][]float64{{}, {}}
	code := 0
	for _, seed := range seeds {
		for _, name := range workloadNames {
			for set := range sets {
				c := cfg
				c.seed = seed
				ps, err := measure(ctx, L, c, name)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %s seed %d: %v\n", name, seed, err)
					return 1
				}
				if ps.failed > 0 {
					fmt.Printf("FAILED %s seed %d: %s\n", name, seed, ps.describeErrors(3))
					code = 1
				}
				if sets[set][name] == nil {
					sets[set][name] = map[string][]float64{}
				}
				for _, d := range bf.EndToEnd {
					sets[set][name][d.Name] = append(sets[set][name][d.Name], ps.m[d.Name])
				}
				fmt.Printf("set %d seed %d %s done\n", set+1, seed, name)
			}
		}
	}
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "differ", "bound")
	for _, name := range workloadNames {
		for _, d := range bf.EndToEnd {
			a, b := median(sets[0][name][d.Name]), median(sets[1][name][d.Name])
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			// Either set may be the worse one; take the worse direction's
			// share of the better value.
			differ := 0.0
			if lo > 0 {
				differ = (hi - lo) / lo
			}
			verdict := ""
			if differ > d.Bound {
				verdict = "  EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %7.1f%% %7.1f%%%s\n", name, d.Name, a, b, differ*100, d.Bound*100, verdict)
		}
	}
	return code
}
