// Command benchjson converts `go test -bench` text output on stdin into
// machine-readable JSON on stdout, so benchmark results can be archived
// and diffed across PRs (the BENCH_*.json documents in the repo root; see
// `make bench-json`). It understands the standard benchmark line format
//
//	BenchmarkName-8   	     100	  11234 ns/op	  2048 B/op	  12 allocs/op
//
// plus the goos/goarch/pkg/cpu header lines, and tolerates interleaved
// non-benchmark output (PASS, ok, test logs), which it ignores. Repeated
// runs of the same benchmark (`go test -count=N`) are collapsed to the
// fastest run — the minimum is the noise-robust estimator of a
// benchmark's true cost, since interference only ever adds time.
//
// Compare mode diffs two archived documents:
//
//	benchjson -diff OLD.json NEW.json [-threshold 20]
//
// prints a per-benchmark delta table (ns/op and allocs/op) for the
// benchmarks present in both files and exits 1 if any shared benchmark
// regressed by more than the threshold percentage — `make bench-diff`
// gates on it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"` // unit → value, e.g. "B/op", "allocs/op"
}

// Output is the whole document.
type Output struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	diffMode := flag.Bool("diff", false, "compare two archived JSON documents: benchjson -diff OLD NEW")
	threshold := flag.Float64("threshold", 20, "with -diff: fail (exit 1) when ns/op regresses by more than this percentage")
	flag.Parse()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two files: benchjson -diff OLD NEW")
			os.Exit(2)
		}
		regressed, err := diff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	out, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// benchKey identifies a benchmark across documents. Procs is part of the
// identity: the same benchmark at a different GOMAXPROCS is a different
// measurement.
func benchKey(b Benchmark) string {
	return fmt.Sprintf("%s\x00%s\x00%d", b.Pkg, b.Name, b.Procs)
}

func loadDoc(path string) (map[string]Benchmark, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Output
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	m := make(map[string]Benchmark, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		m[benchKey(b)] = b
	}
	return m, nil
}

// diff prints the per-benchmark delta table and reports whether any
// benchmark shared by both documents regressed in ns/op by more than
// threshold percent. Benchmarks only in one document are listed as new or
// gone but never gate — a renamed benchmark must not fail the build.
func diff(w io.Writer, oldPath, newPath string, threshold float64) (bool, error) {
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return false, err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return false, err
	}
	keys := make([]string, 0, len(oldDoc)+len(newDoc))
	for k := range oldDoc {
		keys = append(keys, k)
	}
	for k := range newDoc {
		if _, ok := oldDoc[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	pct := func(oldV, newV float64) float64 { return (newV - oldV) / oldV * 100 }
	regressed := false
	tw := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	tw("%-60s %14s %14s %9s %12s\n", "benchmark", "old ns/op", "new ns/op", "Δns/op", "Δallocs/op")
	for _, k := range keys {
		ob, inOld := oldDoc[k]
		nb, inNew := newDoc[k]
		label := func(b Benchmark) string {
			name := b.Name
			if i := strings.LastIndex(b.Pkg, "/"); i >= 0 {
				name = b.Pkg[i+1:] + "." + name
			} else if b.Pkg != "" {
				name = b.Pkg + "." + name
			}
			return name
		}
		switch {
		case !inNew:
			tw("%-60s %14.0f %14s %9s %12s\n", label(ob), ob.NsPerOp, "(gone)", "", "")
		case !inOld:
			tw("%-60s %14s %14.0f %9s %12s\n", label(nb), "(new)", nb.NsPerOp, "", "")
		default:
			dns := pct(ob.NsPerOp, nb.NsPerOp)
			allocDelta := ""
			if oa, ok := ob.Metrics["allocs/op"]; ok {
				if na, ok := nb.Metrics["allocs/op"]; ok && oa > 0 {
					allocDelta = fmt.Sprintf("%+.1f%%", pct(oa, na))
				}
			}
			mark := ""
			if dns > threshold {
				mark = "  REGRESSION"
				regressed = true
			}
			tw("%-60s %14.0f %14.0f %+8.1f%% %12s%s\n", label(nb), ob.NsPerOp, nb.NsPerOp, dns, allocDelta, mark)
		}
	}
	if regressed {
		tw("FAIL: at least one benchmark regressed by more than %.0f%% in ns/op\n", threshold)
	}
	return regressed, nil
}

func parse(sc *bufio.Scanner) (Output, error) {
	var out Output
	pkg := ""
	seen := map[string]int{} // benchKey → index in out.Benchmarks
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			out.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBench(line); ok {
				b.Pkg = pkg
				if i, dup := seen[benchKey(b)]; dup {
					// Keep the fastest of repeated -count runs.
					if b.NsPerOp < out.Benchmarks[i].NsPerOp {
						out.Benchmarks[i] = b
					}
					continue
				}
				seen[benchKey(b)] = len(out.Benchmarks)
				out.Benchmarks = append(out.Benchmarks, b)
			}
		}
	}
	return out, sc.Err()
}

// parseBench parses one result line; ok is false for lines that merely
// start with "Benchmark" (e.g. a benchmark's own log output).
func parseBench(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Metrics: map[string]float64{}}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Procs = procs
			b.Name = b.Name[:i]
		}
	}
	b.Name = strings.TrimPrefix(b.Name, "Benchmark")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}
