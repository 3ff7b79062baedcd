package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// runCLI runs main in-process with args, the way the shell would, and
// returns what it wrote to stdout. It goes through main rather than a
// helper beneath it so the test holds across any refactor of the driver.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags }()
	os.Args = append([]string{"experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
	os.Stdout = f
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// allTables is `experiments -trials 2 -seed 1 -workers W -out DIR all` as
// one document: stdout, then every file of DIR in name order.
func allTables(t *testing.T, workers string) []byte {
	t.Helper()
	dir := t.TempDir()
	var doc bytes.Buffer
	doc.WriteString("=== stdout\n")
	doc.Write(runCLI(t, "-trials", "2", "-seed", "1", "-workers", workers, "-out", dir, "all"))
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		doc.WriteString("=== " + f.Name() + "\n")
		doc.Write(data)
	}
	return doc.Bytes()
}

// TestAllTablesGolden pins every byte the suite prints and every byte it
// writes under -out — the .txt tables and the .csv rows of all twenty
// experiments — and that the worker count changes none of them.
func TestAllTablesGolden(t *testing.T) {
	const golden = "testdata/all.golden"
	serial := allTables(t, "1")
	if *update {
		if err := os.WriteFile(golden, serial, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, want) {
		t.Errorf("-workers 1 differs from %s (go test ./cmd/experiments -update rewrites it; diff the file):\n%s", golden, firstDiff(serial, want))
	}
	if pooled := allTables(t, "8"); !bytes.Equal(pooled, serial) {
		t.Errorf("-workers 8 differs from -workers 1:\n%s", firstDiff(pooled, serial))
	}
}

// firstDiff shows the first line on which got and want part.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("one is a prefix of the other: %d lines against %d", len(g), len(w))
}

// TestUnknownIDExits2: an id the suite does not hold is a usage error — it
// used to print nothing and exit 0. The test re-executes its own binary as
// `experiments e2 e99` to see the real exit status.
func TestUnknownIDExits2(t *testing.T) {
	if os.Getenv("EXPERIMENTS_AS_MAIN") != "" {
		os.Args = []string{"experiments", "e2", "e99"}
		flag.CommandLine = flag.NewFlagSet("experiments", flag.ExitOnError)
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownIDExits2$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_AS_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2 (stderr %q)", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before refusing: %q", stdout.String())
	}
	for _, want := range []string{`"e99"`, "e1|e2|", "|e20|e12|all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %s", stderr.String(), want)
		}
	}
}

// TestIDsRunInSuiteOrder: ids select, they do not order; repeats run once.
func TestIDsRunInSuiteOrder(t *testing.T) {
	out := string(runCLI(t, "-trials", "1", "e19", "e12", "e1", "e19"))
	e1, e19, e12 := strings.Index(out, "E1  "), strings.Index(out, "E19  "), strings.Index(out, "E12  ")
	if e1 < 0 || !(e1 < e19 && e19 < e12) || strings.Count(out, "E19  ") != 1 || strings.Count(out, "\nE") != 2 {
		t.Errorf("want E1, E19, E12 once each in that order:\n%s", out)
	}
}
