package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// recordSeedPayloads are record payloads as real journals hold them: every
// record of the write-path golden, and every frame of the parent-format
// journal (per-decision dispatch records included).
func recordSeedPayloads(t testing.TB) [][]byte {
	t.Helper()
	testdata := filepath.Join("..", "server", "testdata")
	var out [][]byte
	golden, err := os.ReadFile(filepath.Join(testdata, "writepath.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if !strings.HasPrefix(line, "journal ") {
			continue
		}
		var recs []json.RawMessage
		if err := json.Unmarshal([]byte(line[strings.IndexByte(line, '['):]), &recs); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		for _, r := range recs {
			out = append(out, r)
		}
	}
	segs, err := filepath.Glob(filepath.Join(testdata, "journal_pr16", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal_pr16 segments: %v %v", segs, err)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= frameHeader {
			n := int(binary.LittleEndian.Uint32(data))
			if n == 0 || len(data)-frameHeader < n {
				break
			}
			out = append(out, data[frameHeader:frameHeader+n])
			data = data[frameHeader+n:]
		}
	}
	if len(out) < 50 {
		t.Fatalf("only %d seed payloads", len(out))
	}
	return out
}

// TestRecordCodecOnRealJournals: every payload a real journal holds takes
// the fast path both ways and comes out as encoding/json has it.
func TestRecordCodecOnRealJournals(t *testing.T) {
	for _, p := range recordSeedPayloads(t) {
		var got, want Record
		if !DecodeRecord(p, &got) {
			t.Fatalf("DecodeRecord declined %s", p)
		}
		if err := json.Unmarshal(p, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRecord(%s) = %+v, json.Unmarshal = %+v, %v", p, got, want, err)
		}
		enc, ok := AppendRecord(nil, &got)
		if !ok || !bytes.Equal(enc, p) {
			t.Fatalf("AppendRecord = %s, %v; the journal holds %s", enc, ok, p)
		}
	}
}

// TestRecordCodecDeclines: what the codec must leave to encoding/json, and
// what encoding/json then makes of it — readSegment, the replication reader
// and a follower all go through UnmarshalRecord.
func TestRecordCodecDeclines(t *testing.T) {
	for _, tc := range []struct {
		payload string
		want    *Record // nil: json.Unmarshal refuses it too
	}{
		{`{"lsn":1,"op":"advance","extra":true}`, &Record{LSN: 1, Op: "advance"}}, // unknown keys are allowed in a journal
		{`{"LSN":1,"op":"advance"}`, &Record{LSN: 1, Op: "advance"}},
		{`{"lsn":1,"lsn":2,"op":"advance"}`, &Record{LSN: 2, Op: "advance"}},
		{`{"lsn":1,"op":"a\u0062c"}`, &Record{LSN: 1, Op: "abc"}},
		{`{"lsn":1,"op":"a<b"}`, &Record{LSN: 1, Op: "a<b"}},
		{`{"lsn":1,"op":"é"}`, &Record{LSN: 1, Op: "é"}},
		{`{"lsn":1,"op":null}`, &Record{LSN: 1}},
		{`{"lsn":1,"op":"x","e":-0}`, &Record{LSN: 1, Op: "x"}},
		{`{"lsn":1,"op":"x","jobs":null}`, &Record{LSN: 1, Op: "x"}},
		{`{"lsn":1,"op":"x","jobs":[{"name":"a","cost":"1/2"}]}`, &Record{LSN: 1, Op: "x", Jobs: []Job{{Name: "a"}}}},
		{`{"lsn":1,"op":"x","jobs":[{"Name":"a"}]}`, &Record{LSN: 1, Op: "x", Jobs: []Job{{Name: "a"}}}},
		{`{"lsn":1,"op":"x","jobs":[{"name":"a<b"}]}`, &Record{LSN: 1, Op: "x", Jobs: []Job{{Name: "a<b"}}}},
		{`{"lsn":1,"op":"x","jobs":[{"name":"a"},{"name":"b","name":"c"}]}`, &Record{LSN: 1, Op: "x", Jobs: []Job{{Name: "a"}, {Name: "c"}}}},
		{`{"lsn":1,"op":"x","jobs":[null]}`, &Record{LSN: 1, Op: "x", Jobs: []Job{{}}}},
		{`{"lsn":1,"op":"x","jobs":[{"name":"a"},]}`, nil},
		{`{"lsn":1,"op":"x","jobs":{"name":"a"}}`, nil},
		{`{"lsn":1,"op":"x","jobs":[{"name":"a"}`, nil},
		{`{"lsn":1,"op":"x","tenant":{"a":1}}`, nil},
		{`{"lsn":1e3,"op":"x"}`, nil},
		{`{"lsn":01,"op":"x"}`, nil},
		{`{"lsn":-1,"op":"x"}`, nil},
		{`{"lsn":18446744073709551616,"op":"x"}`, nil},
		{`{"lsn":1,"op":"x","crc":4294967296}`, nil},
		{`{"lsn":1,"op":"x","e":9223372036854775808}`, nil},
		{`{"lsn":1,"op":"x"} x`, nil},
		{`{"lsn":1,"op":"x"}{}`, nil},
		{"\xef\xbb\xbf" + `{"lsn":1,"op":"x"}`, nil},
		{`[{"lsn":1,"op":"x"}]`, nil},
		{`{"lsn":1,"op":"x",}`, nil},
		{`{"lsn":1 "op":"x"}`, nil},
		{`{"lsn":1,"op":"x"`, nil},
		{``, nil},
	} {
		got := Record{Name: "kept"}
		if DecodeRecord([]byte(tc.payload), &got) {
			t.Errorf("DecodeRecord accepted %s", tc.payload)
		}
		if !reflect.DeepEqual(got, Record{Name: "kept"}) {
			t.Errorf("DecodeRecord(%s) declined but stored %+v", tc.payload, got)
		}
		got = Record{}
		err := UnmarshalRecord([]byte(tc.payload), &got)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("UnmarshalRecord(%s) = %+v, want an error", tc.payload, got)
		case tc.want != nil && (err != nil || !reflect.DeepEqual(got, *tc.want)):
			t.Errorf("UnmarshalRecord(%s) = %+v, %v; want %+v", tc.payload, got, err, *tc.want)
		}
	}
	// Inside the subset: white space anywhere between tokens, any key order,
	// the integer extremes.
	for payload, want := range map[string]Record{
		" {\t\"op\" : \"x\" ,\n\"lsn\":\r7 } \n": {LSN: 7, Op: "x"},
		`{"key":"k","lsn":18446744073709551615,"op":"","e":-9223372036854775808,"p":9223372036854775807,"crc":4294967295}`: {
			LSN: math.MaxUint64, E: math.MinInt64, P: math.MaxInt64, CRC: math.MaxUint32, Key: "k"},
		`{}`:                            {},
		`{"op":"job-submit","jobs":[]}`: {Op: OpJobSubmit, Jobs: []Job{}},
		`{"jobs" : [ {"key":"k" , "name":"a"} , { "name" : "b","earliness":-9223372036854775808,"at":"3/2"} ],"lsn":7}`: {
			LSN: 7, Jobs: []Job{{Name: "a", Key: "k"}, {Name: "b", At: "3/2", Earliness: math.MinInt64}}},
	} {
		var got Record
		if !DecodeRecord([]byte(payload), &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeRecord(%q) = %+v, want %+v taken on the fast path", payload, got, want)
		}
	}
	// Outside the subset on the way out.
	for _, r := range []Record{{Op: OpTaskRegister, Tenant: "t&t"}, {Op: OpTaskRegister, Name: "tâche"}, {Op: "a\"b"}, {Op: "x", Key: "\x7f\x00"},
		{Op: OpJobSubmit, Jobs: []Job{{Name: "a"}, {Name: "b", Key: "k>"}}}} {
		if enc, ok := AppendRecord(nil, &r); ok {
			t.Errorf("AppendRecord took %+v: %s", r, enc)
		}
	}
}

// TestDeclinedRecordIsFramedFromMarshal: a record the encoder declines still
// reaches the journal, in json.Marshal's bytes, beside ones it took.
func TestDeclinedRecordIsFramedFromMarshal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	want := []Record{
		{Op: OpTaskRegister, Tenant: "r&d", Name: "tâche <1>", E: 1, P: 2},
		{Op: OpJobSubmit, Tenant: "r&d", Name: "plain", At: "0"},
	}
	if _, err := l.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(binary.LittleEndian.Uint32(data)); !bytes.Equal(data[frameHeader:frameHeader+n], payload) {
			t.Fatalf("frame holds %s, want %s", data[frameHeader:frameHeader+n], payload)
		}
		data = data[frameHeader+len(payload):]
	}
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 2 || !reflect.DeepEqual(rec.Records[0], want[0]) || !reflect.DeepEqual(rec.Records[1], want[1]) {
		t.Fatalf("recovered %+v, want %+v", rec.Records, want)
	}
}

// FuzzRecordMatchesJSON is the record codec's contract, both directions.
// Arbitrary bytes: if DecodeRecord accepts them, json.Unmarshal — unknown
// fields allowed, as readSegment allows them — accepts them too and yields
// the same Record. Arbitrary field values: if AppendRecord encodes them, the
// bytes are json.Marshal's, and they decode back to the record.
func FuzzRecordMatchesJSON(f *testing.F) {
	add := func(payload string) { f.Add([]byte(payload), "", "", "", "", uint64(0), int64(0), int64(0), int64(0)) }
	for _, p := range recordSeedPayloads(f) {
		add(string(p))
	}
	for _, p := range []string{
		`{"LSN":1,"op":"advance"}`, `{"lsn":1,"Op":"advance"}`, `{"lsn":1,"lsn":2,"op":"advance"}`,
		`{"lsn":1,"op":null}`, `{"lsn":1e3,"op":"x"}`, `{"lsn":01,"op":"x"}`, `{"lsn":1,"op":"x","e":-0}`,
		`{"lsn":1,"op":"x","e":9223372036854775808}`, `{"lsn":1,"op":"x","tenant":{"a":1}}`,
		`{"lsn":1,"op":"x","m":[1]}`, `{"lsn":1,"op":"x"} trailing`, "\xef\xbb\xbf" + `{"lsn":1,"op":"x"}`,
		`{"lsn":1,"op":"a\"b"}`, `{"lsn":1,"op":"a<b"}`, `{"lsn":1,"op":"é"}`, `{"lsn":1,"op":"x","unknown":1}`,
		` { "lsn" : 1 , "op" : "x" } `, `{}`,
		`{"lsn":1,"op":"job-submit","tenant":"t","jobs":[{"name":"a","at":"0","key":"k1"},{"name":"b","at":"3/2","earliness":2}],"term":3}`,
		`{"lsn":1,"op":"x","jobs":null}`, `{"lsn":1,"op":"x","jobs":[]}`, `{"lsn":1,"op":"x","jobs":[null]}`, `{"lsn":1,"op":"x","jobs":[{}]}`,
		`{"lsn":1,"op":"x","jobs":[{"name":"a","cost":1}]}`, `{"lsn":1,"op":"x","jobs":[{"name":"a"},]}`, `{"lsn":1,"op":"x","jobs":[{"name":"é"}]}`,
		`{"lsn":1,"op":"x","jobs":[{"name":"a"}],"jobs":[{"at":"1"}]}`,
	} {
		add(p)
	}
	f.Add([]byte(`{}`), "job-submit", "acme", "web<1>", "3/2", uint64(1)<<63, int64(math.MinInt64), int64(-1), int64(math.MaxInt64))
	f.Add([]byte(`{}`), "dispatch", "tên", `q"uote`, "back\\slash", uint64(7), int64(2), int64(3), int64(4))

	f.Fuzz(func(t *testing.T, payload []byte, s1, s2, s3, s4 string, u uint64, n1, n2, n3 int64) {
		var got Record
		if DecodeRecord(payload, &got) {
			var want Record
			if err := json.Unmarshal(payload, &want); err != nil {
				t.Fatalf("DecodeRecord accepted %q, json.Unmarshal: %v", payload, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("DecodeRecord(%q) = %+v, json.Unmarshal = %+v", payload, got, want)
			}
		}

		r := Record{
			LSN: u, Op: s1, Tenant: s2, M: int(n1), Policy: s3, Mode: s4,
			Name: s2, E: n2, P: n3, At: s3, Earliness: n1,
			DSeq: n2, Count: n3, CRC: uint32(u), Index: n1, Finish: s4,
			Term: u >> 1, Key: s1,
		}
		if n := u % 4; n > 0 {
			r.Jobs = []Job{{Name: s2, At: s3, Earliness: n1, Key: s1}, {Name: s4}, {Name: s1, Earliness: n2}}[:n]
		}
		enc, ok := AppendRecord([]byte("x"), &r)
		if !ok {
			if string(enc) != "x" {
				t.Fatalf("AppendRecord declined %+v and left %q behind", r, enc)
			}
			return
		}
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc[1:], want) {
			t.Fatalf("AppendRecord(%+v)\n got %s\nwant %s", r, enc[1:], want)
		}
		var back Record
		if !DecodeRecord(want, &back) || !reflect.DeepEqual(back, r) {
			t.Fatalf("DecodeRecord(%s) = %+v, want %+v on the fast path", want, back, r)
		}
	})
}
