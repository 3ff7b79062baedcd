package obs

import (
	"strings"
	"testing"
)

// TestWriteParseRoundTrip: what AppendHistogram/AppendInt emit, the
// scrape parser reads back verbatim — the two halves of the exposition
// contract agree with each other.
func TestWriteParseRoundTrip(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.005, 0.05, 0.5} {
		h.Observe(v)
	}
	b := AppendHeader(nil, "x_seconds", "Test histogram.", "histogram")
	b = AppendHistogram(b, "x_seconds", []Label{{"tenant", "a"}}, h.Snapshot())
	b = AppendHeader(b, "x_total", "Test counter.", "counter")
	b = AppendInt(b, "x_total", nil, 42)

	e, err := ParseExposition(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err != nil {
		t.Fatal(err)
	}
	if len(e.Families) != 2 || e.Families[0].Name != "x_seconds" || e.Families[1].Name != "x_total" {
		t.Fatalf("families: %+v", e.Families)
	}
	snap, err := e.Histogram("x_seconds", []Label{{"tenant", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 4 || snap.Sum != 0.0005+0.005+0.05+0.5 {
		t.Errorf("round-tripped count=%d sum=%g", snap.Count, snap.Sum)
	}
	want := []uint64{1, 2, 3}
	for i, w := range want {
		if snap.Buckets[i] != w {
			t.Errorf("bucket %d: got %d, want %d", i, snap.Buckets[i], w)
		}
	}
	f := e.Family("x_total")
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("counter family: %+v", f)
	}
}

func TestParseRejectsDuplicateFamily(t *testing.T) {
	const page = `# HELP a_total A.
# TYPE a_total counter
a_total 1
# HELP b_total B.
# TYPE b_total counter
b_total 1
# HELP a_total A again.
# TYPE a_total counter
a_total 2
`
	if _, err := ParseExposition(page); err == nil || !strings.Contains(err.Error(), "reopened") {
		t.Fatalf("want reopened-family error, got %v", err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample before family": "a_total 1\n",
		"unterminated labels":  "# HELP a A.\n# TYPE a counter\na{x=\"y 1\n",
		"bad value":            "# HELP a A.\n# TYPE a counter\na one\n",
		"duplicate HELP":       "# HELP a A.\n# HELP a B.\n# TYPE a counter\na 1\n",
		"foreign sample":       "# HELP a A.\n# TYPE a counter\nb_total 1\n",
		"bad metric name":      "# HELP a A.\n# TYPE a counter\n1a 1\n",
	}
	for name, page := range cases {
		if _, err := ParseExposition(page); err == nil {
			t.Errorf("%s: parse accepted %q", name, page)
		}
	}
}

func TestCheckCatchesDuplicateSamples(t *testing.T) {
	const page = `# HELP a_total A.
# TYPE a_total counter
a_total{t="x"} 1
a_total{t="x"} 2
`
	e, err := ParseExposition(page)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err == nil || !strings.Contains(err.Error(), "duplicate sample") {
		t.Fatalf("want duplicate-sample error, got %v", err)
	}
}

func TestCheckCatchesInconsistentHistogram(t *testing.T) {
	const page = `# HELP h_seconds H.
# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 5
h_seconds_bucket{le="2"} 3
h_seconds_bucket{le="+Inf"} 5
h_seconds_sum 1
h_seconds_count 5
`
	e, err := ParseExposition(page)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Check(); err == nil || !strings.Contains(err.Error(), "not cumulative") {
		t.Fatalf("want non-cumulative error, got %v", err)
	}
	const page2 = `# HELP h_seconds H.
# TYPE h_seconds histogram
h_seconds_bucket{le="1"} 3
h_seconds_bucket{le="+Inf"} 4
h_seconds_sum 1
h_seconds_count 5
`
	e2, err := ParseExposition(page2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Check(); err == nil || !strings.Contains(err.Error(), "+Inf bucket") {
		t.Fatalf("want +Inf mismatch error, got %v", err)
	}
}

func TestParseLabelEscapes(t *testing.T) {
	const page = "# HELP a A.\n# TYPE a gauge\na{msg=\"say \\\"hi\\\", ok\"} 1\n"
	e, err := ParseExposition(page)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Family("a").Samples[0].Label("msg")
	if got != `say "hi", ok` {
		t.Fatalf("escaped label: %q", got)
	}
}

func TestParseInfValues(t *testing.T) {
	const page = "# HELP a A.\n# TYPE a gauge\na +Inf\n"
	e, err := ParseExposition(page)
	if err != nil {
		t.Fatal(err)
	}
	v := e.Family("a").Samples[0].Value
	if !(v > 0 && v*2 == v) { // +Inf
		t.Fatalf("value: %g", v)
	}
}
