package wire

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestPlainIsWhatJSONCopies pins Plain to encoding/json, byte by byte and in
// both directions: a plain string marshals to itself between quotes, and
// that unmarshals to it; every other byte marshals to something else. The
// typed codecs' differential tests and fuzzers (internal/server,
// internal/wal) rest on this one definition.
func TestPlainIsWhatJSONCopies(t *testing.T) {
	for c := 0; c < 256; c++ {
		for _, s := range []string{string([]byte{byte(c)}), "a" + string([]byte{byte(c)}) + "z"} {
			enc, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			copied := string(enc) == `"`+s+`"`
			if Plain(s) != copied {
				t.Errorf("Plain(%q) = %v, json.Marshal = %s", s, Plain(s), enc)
			}
			if !copied {
				continue
			}
			var back string
			if err := json.Unmarshal(enc, &back); err != nil || back != s {
				t.Errorf("json.Unmarshal(%s) = %q, %v", enc, back, err)
			}
			w := Writer{}
			w.String(s)
			sc := NewScanner(w.Buf)
			if got := sc.String(); !w.OK() || string(w.Buf) != string(enc) || got != s || !sc.End() {
				t.Errorf("Writer wrote %s (ok %v), Scanner read %q back (end %v); json has %s", w.Buf, w.OK(), got, sc.End(), enc)
			}
		}
	}
	if !Plain("") || Plain("é") || Plain("a ") {
		t.Error("Plain: the empty string is plain, nothing beyond ASCII is")
	}
}

// TestScannerIntegers: each width takes its extremes and what strconv
// prints, and declines one past them and every other spelling of a number.
func TestScannerIntegers(t *testing.T) {
	read := map[string]func(s *Scanner) string{
		"int64":  func(s *Scanner) string { return strconv.FormatInt(s.Int64(), 10) },
		"int":    func(s *Scanner) string { return strconv.Itoa(s.Int()) },
		"uint64": func(s *Scanner) string { return strconv.FormatUint(s.Uint64(), 10) },
		"uint32": func(s *Scanner) string { return strconv.FormatUint(uint64(s.Uint32()), 10) },
	}
	take := map[string][]string{
		"int64":  {"0", "7", "-7", "10", strconv.Itoa(math.MaxInt64), strconv.Itoa(math.MinInt64)},
		"int":    {"0", "-1", strconv.Itoa(math.MaxInt), strconv.Itoa(math.MinInt)},
		"uint64": {"0", "1", "18446744073709551615"},
		"uint32": {"0", "1", "4294967295"},
	}
	decline := map[string][]string{
		"int64":  {"9223372036854775808", "-9223372036854775809", "99999999999999999999"},
		"int":    {"9223372036854775808", "-9223372036854775809"},
		"uint64": {"18446744073709551616", "-1", "99999999999999999999"},
		"uint32": {"4294967296", "-1", "18446744073709551615"},
	}
	for kind, fn := range read {
		for _, in := range take[kind] {
			s := NewScanner([]byte(" " + in + " "))
			if got := fn(&s); got != in || !s.End() {
				t.Errorf("%s(%s) = %s, end %v", kind, in, got, s.End())
			}
		}
		for _, in := range append(decline[kind], "", "-", "-0", "00", "01", "-01", "+1", "1.0", "1e3", "1E3", ".5", "0x1", "1_0", "null", `"1"`, "٣") {
			s := NewScanner([]byte(in))
			if got := fn(&s); s.End() {
				t.Errorf("%s(%q) = %s on the fast path", kind, in, got)
			}
		}
	}
}

// TestScannerIsSticky: after a decline every call is a no-op that returns
// zero, whatever is left of the input.
func TestScannerIsSticky(t *testing.T) {
	s := NewScanner([]byte(`{"a":1,"a":2,"b":"x","c":true,"d":[{}]}`))
	names := []string{"a", "b", "c", "d"}
	var seen uint32
	s.Object()
	if s.Key(names, &seen) != 0 || s.Int() != 1 {
		t.Fatal("first member")
	}
	if s.Key(names, &seen) != -1 {
		t.Fatal("a repeated key went through")
	}
	s.Array()
	if s.Key(names, &seen) != -1 || s.String() != "" || s.Int64() != 0 || s.Uint64() != 0 || s.Bool() || s.Elem(0) || s.Elem(1) || s.End() {
		t.Fatal("a declined scanner moved")
	}
}

// TestLeafPackage: the codec is a leaf — the standard library only, and none
// of encoding/json (it would be its own fallback), reflect or unsafe.
func TestLeafPackage(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				first, _, _ := strings.Cut(path, "/")
				if strings.Contains(first, ".") || first == "desyncpfair" || path == "encoding/json" || path == "reflect" || path == "unsafe" {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
	if files == 0 {
		t.Fatal("no source files parsed")
	}
}
