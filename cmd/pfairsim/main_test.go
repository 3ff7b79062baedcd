package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	pfair "desyncpfair"
)

func TestParseWeights(t *testing.T) {
	ws, err := parseWeights("1/2, 3/4,1/6")
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 || ws[1] != pfair.W(3, 4) {
		t.Errorf("weights = %v", ws)
	}
	for _, bad := range []string{"", "1", "1/2/3", "a/b", "3/2", "0/4"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) should fail", bad)
		}
	}
}

func TestParseYield(t *testing.T) {
	sys := pfair.Periodic([]pfair.Weight{pfair.W(1, 2)}, 4)
	sub := sys.All()[0]
	cases := []string{"full", "uniform:8", "bimodal:60:8", "adversarial:1/64"}
	for _, spec := range cases {
		y, err := parseYield(spec, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if c := y(sub); c.Sign() <= 0 || pfair.IntRat(1).Less(c) {
			t.Errorf("%s: cost %s out of range", spec, c)
		}
	}
	for _, bad := range []string{"", "nope", "uniform", "uniform:x", "bimodal:60", "bimodal:a:b", "adversarial:", "adversarial:x", "adversarial:1/x", "adversarial:1"} {
		if _, err := parseYield(bad, 1); err == nil {
			t.Errorf("parseYield(%q) should fail", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	html := filepath.Join(dir, "out.html")
	for _, mdl := range []string{"sfq", "staggered", "dvq", "pdb", "drift"} {
		if err := run(2, "1/6,1/6,1/6,1/2,1/2,1/2", 0, "", mdl, "PD2", 6, "uniform:8", "1/100", 1, false, csv, html); err != nil {
			t.Fatalf("%s: %v", mdl, err)
		}
	}
	if fi, err := os.Stat(csv); err != nil || fi.Size() == 0 {
		t.Error("csv not written")
	}
	if fi, err := os.Stat(html); err != nil || fi.Size() == 0 {
		t.Error("html not written")
	}
	if err := run(2, "x", 0, "", "dvq", "PD2", 6, "full", "1/100", 1, false, "", ""); err == nil {
		t.Error("bad weights accepted")
	}
	if err := run(2, "1/2", 0, "", "bogus", "PD2", 6, "full", "1/100", 1, false, "", ""); err == nil {
		t.Error("bad model accepted")
	}
	if err := run(2, "1/2", 0, "", "dvq", "BOGUS", 6, "full", "1/100", 1, false, "", ""); err == nil {
		t.Error("bad policy accepted")
	}
	if err := run(2, "", 5, "", "dvq", "PD2", 12, "full", "1/100", 1, true, "", ""); err != nil {
		t.Errorf("random mode: %v", err)
	}
}

func TestRunFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tasks.json")
	data := `{"tasks":[
		{"name":"A","e":1,"p":2,"periodicUntil":8},
		{"name":"B","e":1,"p":2,"periodicUntil":8},
		{"name":"C","e":3,"p":4,"subtasks":[{"i":1,"elig":0},{"i":2,"elig":1},{"i":3,"theta":1,"elig":3}]}
	]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(2, "", 0, path, "dvq", "PD2", 0, "full", "1/100", 1, false, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := run(2, "", 0, filepath.Join(dir, "missing.json"), "dvq", "PD2", 0, "full", "1/100", 1, false, "", ""); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"tasks":[{"name":"X","e":3,"p":2,"periodicUntil":4}]}`), 0o644)
	if err := run(2, "", 0, bad, "dvq", "PD2", 0, "full", "1/100", 1, false, "", ""); err == nil {
		t.Error("invalid system accepted")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/render.golden from this tree's output")

// runCLI runs main in-process with args and returns what it wrote to
// stdout; going through main keeps the test independent of run's signature.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	oldArgs, oldOut, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldOut, oldFlags }()
	os.Args = append([]string{"pfairsim"}, args...)
	flag.CommandLine = flag.NewFlagSet("pfairsim", flag.ExitOnError)
	os.Stdout = f
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRenderGolden pins the full printed schedule of every model under
// every policy on one 12-task, 4-processor system at full utilization —
// every engine the CLI reaches, assignment by assignment — plus one row of
// early yields, where SFQ wastes the residue and DVQ reclaims it.
func TestRenderGolden(t *testing.T) {
	const golden = "testdata/render.golden"
	models := []string{"sfq", "staggered", "dvq", "pdb", "drift"}
	var doc bytes.Buffer
	render := func(model, policy, yield string) {
		doc.WriteString("=== " + model + " " + policy + " " + yield + "\n")
		doc.Write(runCLI(t, "-model", model, "-policy", policy, "-yield", yield,
			"-random", "12", "-m", "4", "-seed", "7", "-render"))
	}
	for _, model := range models {
		for _, policy := range []string{"EPDF", "PF", "PD", "PD2"} {
			render(model, policy, "full")
		}
	}
	for _, model := range models {
		render(model, "PD2", "uniform:8")
	}
	if *update {
		if err := os.WriteFile(golden, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc.Bytes(), want) {
		t.Errorf("render output differs from %s (go test ./cmd/pfairsim -update rewrites it; diff the file)", golden)
		got, want := bytes.Split(doc.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(want); i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("line %d\n got: %s\nwant: %s", i+1, got[i], want[i])
			}
		}
	}
}
