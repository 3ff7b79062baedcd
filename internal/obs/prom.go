package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file holds both halves of the text-exposition contract: the writer
// the server renders /metrics with, and the scrape parser that tests,
// pfairload and the golden-file harness read it back with. Keeping them
// in one package means a malformed exposition is caught by our own tests
// before any real Prometheus sees it.

// Label is one metric label pair.
type Label struct {
	Name, Value string
}

// appendPair appends one name="value" label pair; %q of a string is
// strconv.Quote.
func appendPair(b []byte, l Label) []byte {
	b = append(b, l.Name...)
	b = append(b, '=')
	return strconv.AppendQuote(b, l.Value)
}

// appendSeries appends a sample line up to its value: the series name (a
// family name plus, for a histogram's parts, its suffix), the label set as
// {a="x",b="y"} (nothing when empty) and the separating space.
func appendSeries(b []byte, name, suffix string, labels []Label) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 {
		b = append(b, '{')
		for i, l := range labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPair(b, l)
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// AppendHeader appends a family's HELP and TYPE lines to b. The Append*
// family is the allocation-free exposition writer, the only one the
// repository has: a page is rendered into one (pooled) buffer through
// strconv's Append functions, with no fmt machinery and no string per
// sample; the io.Writer Write* wrappers below are for callers that render
// once per run.
func AppendHeader(b []byte, name, help, typ string) []byte {
	b = append(b, "# HELP "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, help...)
	b = append(b, "\n# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, typ...)
	return append(b, '\n')
}

// AppendInt appends one sample line with an integer value.
func AppendInt(b []byte, name string, labels []Label, v int64) []byte {
	return append(strconv.AppendInt(appendSeries(b, name, "", labels), v, 10), '\n')
}

// AppendUint appends one sample line with an unsigned integer value.
func AppendUint(b []byte, name string, labels []Label, v uint64) []byte {
	return append(strconv.AppendUint(appendSeries(b, name, "", labels), v, 10), '\n')
}

// AppendFloat appends one sample line with a float value in its shortest
// unique form (what %g with default precision prints).
func AppendFloat(b []byte, name string, labels []Label, v float64) []byte {
	return append(strconv.AppendFloat(appendSeries(b, name, "", labels), v, 'g', -1, 64), '\n')
}

// appendBucket appends one _bucket line: the base labels, then le. A bound
// prints as digits, '.', 'e', a sign or +Inf, so quoting it escapes nothing.
func appendBucket(b []byte, name string, labels []Label, le float64, v uint64) []byte {
	b = append(b, name...)
	b = append(b, "_bucket{"...)
	for _, l := range labels {
		b = append(appendPair(b, l), ',')
	}
	b = append(b, `le="`...)
	b = strconv.AppendFloat(b, le, 'g', -1, 64)
	b = append(b, `"} `...)
	return append(strconv.AppendUint(b, v, 10), '\n')
}

// AppendHistogram appends the _bucket/_sum/_count series of one histogram
// snapshot under the given base labels. The caller appends the family
// header once and may then emit several label sets (e.g. one per tenant).
func AppendHistogram(b []byte, name string, labels []Label, s Snapshot) []byte {
	for i, ub := range s.Bounds {
		b = appendBucket(b, name, labels, ub, s.Buckets[i])
	}
	b = appendBucket(b, name, labels, math.Inf(1), s.Count)
	b = append(strconv.AppendFloat(appendSeries(b, name, "_sum", labels), s.Sum, 'g', -1, 64), '\n')
	return append(strconv.AppendUint(appendSeries(b, name, "_count", labels), s.Count, 10), '\n')
}

// WriteHeader writes a family's HELP and TYPE lines.
func WriteHeader(w io.Writer, name, help, typ string) {
	w.Write(AppendHeader(nil, name, help, typ))
}

// WriteSample writes one sample line whose value the caller has already
// formatted.
func WriteSample(w io.Writer, name string, labels []Label, value string) {
	w.Write(append(append(appendSeries(nil, name, "", labels), value...), '\n'))
}

// WriteHistogram writes the _bucket/_sum/_count series of one histogram
// snapshot under the given base labels.
func WriteHistogram(w io.Writer, name string, labels []Label, s Snapshot) {
	w.Write(AppendHistogram(nil, name, labels, s))
}

// --- scrape parser ---

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
	Line   int // 1-based line number in the exposition
}

// Label returns a label value ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Family is one metric family: its metadata plus every sample that
// belongs to it (for histograms, the _bucket/_sum/_count series).
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Exposition is a parsed /metrics page with families in emission order.
type Exposition struct {
	Families []Family
	byName   map[string]*Family
}

// Family looks a family up by name (nil when absent).
func (e *Exposition) Family(name string) *Family {
	return e.byName[name]
}

// FamilyNames returns the family names in emission order.
func (e *Exposition) FamilyNames() []string {
	out := make([]string, len(e.Families))
	for i, f := range e.Families {
		out[i] = f.Name
	}
	return out
}

// Histogram reassembles the histogram family under `name` with exactly
// the given base labels into a Snapshot (inverse of WriteHistogram).
func (e *Exposition) Histogram(name string, labels []Label) (Snapshot, error) {
	f := e.Family(name)
	if f == nil {
		return Snapshot{}, fmt.Errorf("obs: no family %q", name)
	}
	if f.Type != "histogram" {
		return Snapshot{}, fmt.Errorf("obs: family %q has type %q, not histogram", name, f.Type)
	}
	want := map[string]string{}
	for _, l := range labels {
		want[l.Name] = l.Value
	}
	match := func(s Sample, withLe bool) bool {
		extra := 0
		if withLe {
			extra = 1
		}
		if len(s.Labels) != len(want)+extra {
			return false
		}
		for k, v := range want {
			if s.Labels[k] != v {
				return false
			}
		}
		return true
	}
	var snap Snapshot
	seen := false
	for _, s := range f.Samples {
		switch s.Name {
		case name + "_bucket":
			if !match(s, true) {
				continue
			}
			seen = true
			if s.Labels["le"] == "+Inf" {
				continue // redundant with _count; verified by Check
			}
			ub, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return Snapshot{}, fmt.Errorf("obs: line %d: bad le %q", s.Line, s.Labels["le"])
			}
			snap.Bounds = append(snap.Bounds, ub)
			snap.Buckets = append(snap.Buckets, uint64(s.Value))
		case name + "_sum":
			if match(s, false) {
				seen = true
				snap.Sum = s.Value
			}
		case name + "_count":
			if match(s, false) {
				seen = true
				snap.Count = uint64(s.Value)
			}
		}
	}
	if !seen {
		return Snapshot{}, fmt.Errorf("obs: family %q has no series with labels %v", name, want)
	}
	return snap, nil
}

// ParseExposition parses a Prometheus text-format page into families,
// enforcing the structure the server promises: HELP and TYPE exactly once
// per family and before its samples, no family split or repeated after
// another family started, every sample attributable to the current
// family, and parseable values. It is the in-test scrape parser the
// golden-file harness and pfairload build on.
func ParseExposition(text string) (*Exposition, error) {
	e := &Exposition{byName: map[string]*Family{}}
	var order []*Family
	var cur *Family
	for i, line := range strings.Split(text, "\n") {
		ln := i + 1
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("obs: line %d: %v", ln, err)
			}
			if kind == "" {
				continue // free-form comment
			}
			if cur == nil || cur.Name != name {
				if e.byName[name] != nil {
					return nil, fmt.Errorf("obs: line %d: family %q reopened (duplicate or split family)", ln, name)
				}
				cur = &Family{Name: name}
				order = append(order, cur)
				e.byName[name] = cur
			}
			if len(cur.Samples) > 0 {
				return nil, fmt.Errorf("obs: line %d: %s for %q after its samples", ln, kind, name)
			}
			switch kind {
			case "HELP":
				if cur.Help != "" {
					return nil, fmt.Errorf("obs: line %d: duplicate HELP for %q", ln, name)
				}
				cur.Help = rest
			case "TYPE":
				if cur.Type != "" {
					return nil, fmt.Errorf("obs: line %d: duplicate TYPE for %q", ln, name)
				}
				cur.Type = rest
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %v", ln, err)
		}
		s.Line = ln
		if cur == nil {
			return nil, fmt.Errorf("obs: line %d: sample %q before any family header", ln, s.Name)
		}
		base := s.Name
		if cur.Type == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(s.Name, suf) {
					base = strings.TrimSuffix(s.Name, suf)
					break
				}
			}
		}
		if base != cur.Name {
			return nil, fmt.Errorf("obs: line %d: sample %q does not belong to family %q", ln, s.Name, cur.Name)
		}
		cur.Samples = append(cur.Samples, s)
	}
	e.Families = make([]Family, len(order))
	for i, f := range order {
		e.Families[i] = *f
		e.byName[f.Name] = &e.Families[i]
	}
	return e, nil
}

func parseComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return "", "", "", nil
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 4 {
			return "", "", "", fmt.Errorf("malformed HELP line %q", line)
		}
		return "HELP", fields[2], fields[3], nil
	case "TYPE":
		if len(fields) < 4 {
			return "", "", "", fmt.Errorf("malformed TYPE line %q", line)
		}
		return "TYPE", fields[2], fields[3], nil
	}
	return "", "", "", nil
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		if err := parseLabels(rest[i+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		j := strings.IndexByte(rest, ' ')
		if j < 0 {
			return s, fmt.Errorf("sample without value in %q", line)
		}
		s.Name = rest[:j]
		rest = strings.TrimSpace(rest[j+1:])
	}
	if s.Name == "" || !validMetricName(s.Name) {
		return s, fmt.Errorf("bad metric name in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(v, 64)
}

func parseLabels(s string, into map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed labels %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("unquoted label value for %q", name)
		}
		// Find the closing quote, honouring backslash escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("unterminated label value for %q", name)
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return fmt.Errorf("label %q value: %v", name, err)
		}
		if _, dup := into[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		into[name] = val
		s = s[end+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("malformed label separator in %q", s)
			}
			s = s[1:]
		}
	}
	return nil
}

func validMetricName(name string) bool {
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Check validates exposition-wide invariants beyond per-line syntax:
// every family has HELP and TYPE, no two samples in a family repeat the
// same name+label set, and histogram families are internally consistent
// (buckets cumulative and non-decreasing, +Inf bucket equal to _count).
// The golden-file test runs it on every scrape.
func (e *Exposition) Check() error {
	for _, f := range e.Families {
		if f.Help == "" {
			return fmt.Errorf("obs: family %q has no HELP", f.Name)
		}
		if f.Type == "" {
			return fmt.Errorf("obs: family %q has no TYPE", f.Name)
		}
		seen := map[string]bool{}
		for _, s := range f.Samples {
			key := s.Name + renderLabelsSorted(s.Labels)
			if seen[key] {
				return fmt.Errorf("obs: line %d: duplicate sample %s", s.Line, key)
			}
			seen[key] = true
		}
		if f.Type == "histogram" {
			if err := checkHistogramFamily(f); err != nil {
				return err
			}
		}
	}
	return nil
}

func renderLabelsSorted(labels map[string]string) string {
	names := make([]string, 0, len(labels))
	for n := range labels {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[n]))
	}
	b.WriteByte('}')
	return b.String()
}

// checkHistogramFamily groups the family's samples by their non-le label
// set and verifies each series' bucket/count/sum consistency.
func checkHistogramFamily(f Family) error {
	type series struct {
		bounds  []float64
		buckets []uint64
		inf     float64
		hasInf  bool
		count   float64
		hasCnt  bool
		line    int
	}
	groups := map[string]*series{}
	group := func(s Sample) *series {
		labels := map[string]string{}
		for k, v := range s.Labels {
			if k != "le" {
				labels[k] = v
			}
		}
		key := renderLabelsSorted(labels)
		g := groups[key]
		if g == nil {
			g = &series{line: s.Line}
			groups[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			g := group(s)
			if s.Labels["le"] == "+Inf" {
				g.inf, g.hasInf = s.Value, true
				continue
			}
			ub, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return fmt.Errorf("obs: line %d: bad le %q", s.Line, s.Labels["le"])
			}
			g.bounds = append(g.bounds, ub)
			g.buckets = append(g.buckets, uint64(s.Value))
		case f.Name + "_sum":
			// nothing to cross-check beyond parseability
		case f.Name + "_count":
			g := group(s)
			g.count, g.hasCnt = s.Value, true
		}
	}
	for key, g := range groups {
		for i := 1; i < len(g.bounds); i++ {
			if g.bounds[i] <= g.bounds[i-1] {
				return fmt.Errorf("obs: histogram %s%s: le bounds not increasing", f.Name, key)
			}
			if g.buckets[i] < g.buckets[i-1] {
				return fmt.Errorf("obs: histogram %s%s: bucket counts not cumulative", f.Name, key)
			}
		}
		if !g.hasInf || !g.hasCnt {
			return fmt.Errorf("obs: histogram %s%s: missing +Inf bucket or _count", f.Name, key)
		}
		if g.inf != g.count {
			return fmt.Errorf("obs: histogram %s%s: +Inf bucket %g != count %g", f.Name, key, g.inf, g.count)
		}
		if len(g.buckets) > 0 && float64(g.buckets[len(g.buckets)-1]) > g.count {
			return fmt.Errorf("obs: histogram %s%s: last bucket exceeds count", f.Name, key)
		}
	}
	return nil
}
