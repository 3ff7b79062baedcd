package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// codedTypes are the nine types with a hand-written codec: the eight API
// bodies of a submit, an advance and a registration, and the journal record.
var codedTypes = []any{
	server.SubmitJobRequest{}, server.SubmitJobsRequest{}, server.AdvanceRequest{}, server.RegisterTaskRequest{},
	server.SubmitJobResponse{}, server.SubmitJobsResponse{}, server.AdvanceResponse{}, server.RegisterTaskResponse{},
	wal.Record{},
}

// wireEncode and wireDecode are the fast path alone, whichever package holds
// the type's codec; false is anything but taken.
func wireEncode(v any) ([]byte, bool) {
	if r, ok := v.(wal.Record); ok {
		return wal.AppendRecord(nil, &r)
	}
	b, res := server.AppendWire(nil, v)
	return b, res == server.WireOK
}

func wireDecode(body []byte, ptr any) bool {
	if r, ok := ptr.(*wal.Record); ok {
		return wal.DecodeRecord(body, r)
	}
	return server.DecodeWire(body, ptr) == server.WireOK
}

// strictUnmarshal is the server's fallback decoder: the first JSON value,
// unknown fields refused.
func strictUnmarshal(body []byte, ptr any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(ptr)
}

// TestWireCoversEveryField walks the nine coded types by reflection: with
// each field in turn set, and with all of them set, the codec must encode to
// json.Marshal's bytes and decode those bytes back to the value — on the
// fast path, not by declining. A field added to one of these types and not
// to its codec fails here, on both counts, instead of sending every body
// that carries it to the fallback for good.
func TestWireCoversEveryField(t *testing.T) {
	for _, zero := range codedTypes {
		typ := reflect.TypeOf(zero)
		all := wireBase(typ)
		for i := 0; i < typ.NumField(); i++ {
			one := wireBase(typ)
			setNonZero(one.Field(i))
			setNonZero(all.Field(i))
			checkWireRoundTrip(t, typ.Name()+"."+typ.Field(i).Name, one)
		}
		checkWireRoundTrip(t, typ.Name()+" (every field)", all)
		checkWireRoundTrip(t, typ.Name()+" (zero)", wireBase(typ))
	}
}

// wireBase is the zero value with its slices empty instead of nil: a nil
// slice is null on the wire, which the codec leaves to encoding/json. An
// omitempty slice (Record.Jobs) stays nil: empty, it is not on the wire.
func wireBase(typ reflect.Type) reflect.Value {
	v := reflect.New(typ).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice && !omitsEmpty(typ.Field(i)) {
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		}
	}
	return v
}

func omitsEmpty(f reflect.StructField) bool {
	return strings.HasSuffix(f.Tag.Get("json"), ",omitempty")
}

func setNonZero(f reflect.Value) {
	switch f.Kind() {
	case reflect.String:
		f.SetString("x y")
	case reflect.Int, reflect.Int64:
		f.SetInt(-7)
	case reflect.Uint32, reflect.Uint64:
		f.SetUint(7)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Slice:
		elem := reflect.New(f.Type().Elem()).Elem()
		for i := 0; i < elem.NumField(); i++ {
			setNonZero(elem.Field(i))
		}
		f.Set(reflect.Append(f, elem, elem))
	default:
		panic(fmt.Sprintf("coded type holds a %s: teach this test and the codec about it", f.Kind()))
	}
}

func checkWireRoundTrip(t *testing.T, what string, v reflect.Value) {
	t.Helper()
	want, err := json.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := wireEncode(v.Interface())
	if !ok {
		t.Errorf("%s: the codec declined to encode %+v", what, v.Interface())
	} else if !bytes.Equal(got, want) {
		t.Errorf("%s: codec wrote %s, json.Marshal %s", what, got, want)
	}
	back := reflect.New(v.Type())
	if !wireDecode(want, back.Interface()) {
		t.Errorf("%s: the codec declined to decode %s", what, want)
	} else if !reflect.DeepEqual(back.Elem().Interface(), v.Interface()) {
		t.Errorf("%s: codec decoded %s to %+v, want %+v", what, want, back.Elem().Interface(), v.Interface())
	}
}

// wireDeclineBodies are inputs the codec must leave to encoding/json, one or
// more per rule of internal/wire's package comment.
var wireDeclineBodies = []string{
	`{"Task":"a"}`, `{"TASK":"a"}`, `{"tas\u006b":"a"}`, `{"task":"a","Key":"k"}`, // a key in another spelling
	`{"task":"a","task":"b"}`, `{"task":"a","at":"1","task":"b"}`, // a key twice
	`{"jobs":[{"task":"a","at":"1"}],"jobs":[{"task":"b"}]}`, // twice, where last-wins is not what Unmarshal does
	`{"task":"a","cost":"1/2"}`, `{"":"a"}`,                  // unknown keys
	`{"task":null}`, `{"jobs":null}`, `null`,
	`{"task":"a\"b"}`, `{"task":"a\\b"}`, `{"task":"\u0061"}`, `{"task":"a\nb"}`, "{\"task\":\"a\tb\"}", "{\"task\":\"a\x01b\"}", // escapes, control characters
	`{"task":"é"}`, "{\"task\":\"\xff\"}", `{"task":"a<b"}`, `{"task":"a&b"}`, // non-ASCII, HTML characters
	`{"task":"a","earliness":1e3}`, `{"task":"a","earliness":1.0}`, `{"task":"a","earliness":01}`,
	`{"task":"a","earliness":-0}`, `{"task":"a","earliness":9223372036854775808}`, `{"task":"a","earliness":"1"}`,
	`{"task":"a","earliness":+1}`, `{"task":"a","earliness":-}`, `{"task":"a","earliness":}`,
	`{"task":{"name":"a"}}`, `{"task":["a"]}`, `{"jobs":[["a"]]}`, `{"jobs":{"task":"a"}}`, `[{"task":"a"}]`, // nesting
	`{"task":"a"} x`, `{"task":"a"}{"task":"b"}`, `{"task":"a"}]`, // after the value
	"\xef\xbb\xbf" + `{"task":"a"}`, // a BOM
	`{"task":"a",}`, `{,"task":"a"}`, `{"task" "a"}`, `{"task":"a" "at":"1"}`, `{"task":"a"`, `{"task":"a`, `{`, ``, ` `,
	`{"jobs":[{"task":"a"},]}`, `{"jobs":[,{"task":"a"}]}`, `{"jobs":[{"task":"a"}`, `{"jobs":[{"task":"a"} {"task":"b"}]}`,
	`{"task":"a","earliness":1x}`, `{"admitted":truex}`, `{"admitted":tru}`, "{\"task\":\"a\"}\x00",
}

// TestWireDeclines: every rule of the plain subset, on every coded type the
// input could be meant for — declined, the destination untouched — and what
// a request the codec declines gets from the server: the strict decoder's
// answer, which is the answer pfaird gave before there was a codec.
func TestWireDeclines(t *testing.T) {
	for _, body := range wireDeclineBodies {
		for _, zero := range codedTypes {
			ptr := reflect.New(reflect.TypeOf(zero))
			if wireDecode([]byte(body), ptr.Interface()) {
				t.Errorf("%T took %q on the fast path: %+v", zero, body, ptr.Elem().Interface())
			}
			if !ptr.Elem().IsZero() {
				t.Errorf("%T declined %q but stored %+v", zero, body, ptr.Elem().Interface())
			}
		}
	}
	// Inside the subset: white space between any two tokens, keys in any
	// order, an empty batch (a slice that is empty, not nil).
	var job server.SubmitJobRequest
	if !wireDecode([]byte(" {\n\t\"key\" : \"k\" ,\r\"task\":\"a\" , \"earliness\" : -3 } \n"), &job) ||
		job != (server.SubmitJobRequest{Task: "a", Earliness: -3, Key: "k"}) {
		t.Errorf("spaced-out, reordered submit: %+v", job)
	}
	var batch server.SubmitJobsRequest
	if !wireDecode([]byte(`{"jobs":[]}`), &batch) || batch.Jobs == nil || len(batch.Jobs) != 0 {
		t.Errorf("empty batch: %+v", batch)
	}
	if !wireDecode([]byte(`{}`), new(server.SubmitJobsRequest)) {
		t.Errorf("empty object declined")
	}
	if wireDecode([]byte(`{"jobs":[{"task":"a"}]}`), &batch) {
		t.Errorf("decoded into a slice that was not nil, whose elements Unmarshal would reuse")
	}

	srv := server.New()
	defer srv.Shutdown()
	h := srv.Handler()
	post := func(path, body string) (int, string) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rw.Code, rw.Body.String()
	}
	if code, body := post("/v1/tenants", `{"id":"t","m":1}`); code != http.StatusCreated {
		t.Fatalf("create tenant: %d %s", code, body)
	}
	if code, body := post("/v1/tenants/t/tasks", `{"name":"a","e":1,"p":2}`); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, body)
	}
	fallbacks := 0
	for _, body := range wireDeclineBodies {
		var want server.SubmitJobRequest
		err := strictUnmarshal([]byte(body), &want)
		code, reply := post("/v1/tenants/t/jobs", body)
		switch {
		case err != nil:
			var got server.ErrorResponse
			if want := "server: bad request body: " + err.Error(); code != http.StatusBadRequest ||
				json.Unmarshal([]byte(reply), &got) != nil || got.Error != want {
				t.Errorf("POST jobs %q: %d %s, want 400 %s", body, code, reply, want)
			}
		case want.Task == "a" && want.Earliness == 0:
			if code != http.StatusAccepted {
				t.Errorf("POST jobs %q: %d %s, want 202: the strict decoder reads it as %+v", body, code, reply, want)
			}
		default:
			if code != http.StatusBadRequest {
				t.Errorf("POST jobs %q: %d %s, want the 400 validation gives %+v", body, code, reply, want)
			}
		}
		fallbacks++
	}
	// Every one of them was a body of a coded type that fell back, and the
	// server says so.
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("pfaird_wire_fallbacks_total{dir=\"decode\"} %d\n", fallbacks); !strings.Contains(rw.Body.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestWireMatchesJSONRandom diffs the codec against encoding/json on random
// values of every coded type, strings drawn from an alphabet that is half
// outside the plain subset: when the codec encodes, the bytes are Marshal's;
// it declines exactly when a string is not plain; and Marshal's bytes decode
// back to the value on the fast path exactly when they hold no escape.
func TestWireMatchesJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	alphabet := []string{"a", "Z", "0", " ", "/", "-", "{", "}", "[", ",", ":", "~", "\x7f",
		`"`, `\`, "<", ">", "&", "\n", "\t", "\x00", "\x1f", "é", "日", " ", "\xff", "\xc3"}
	plainLetters := 13
	randString := func(plain bool) string {
		var sb strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			if plain {
				sb.WriteString(alphabet[rng.Intn(plainLetters)])
			} else {
				sb.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
		}
		return sb.String()
	}
	var fill func(v reflect.Value, plain bool)
	fill = func(v reflect.Value, plain bool) {
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString(randString(plain))
			case reflect.Int, reflect.Int64:
				f.SetInt([]int64{0, 1, -1, rng.Int63(), -rng.Int63(), math.MaxInt64, math.MinInt64}[rng.Intn(7)])
			case reflect.Uint32:
				f.SetUint(uint64([]uint32{0, 1, rng.Uint32(), math.MaxUint32}[rng.Intn(4)]))
			case reflect.Uint64:
				f.SetUint([]uint64{0, 1, rng.Uint64(), math.MaxUint64}[rng.Intn(4)])
			case reflect.Bool:
				f.SetBool(rng.Intn(2) == 0)
			case reflect.Slice:
				if n := rng.Intn(4); n > 0 || !omitsEmpty(v.Type().Field(i)) {
					f.Set(reflect.MakeSlice(f.Type(), n, 4))
				}
				for j := 0; j < f.Len(); j++ {
					fill(f.Index(j), plain)
				}
			}
		}
	}
	taken := 0
	for i := 0; i < 25000; i++ {
		typ := reflect.TypeOf(codedTypes[rng.Intn(len(codedTypes))])
		v := reflect.New(typ).Elem()
		plain := rng.Intn(2) == 0
		fill(v, plain)
		want, err := json.Marshal(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		// Marshal copies a plain string through and writes anything else with
		// a backslash in it or, valid UTF-8, as it is: its bytes tell whether
		// the value was inside the subset.
		inSubset := !bytes.ContainsRune(want, '\\') && bytes.IndexFunc(want, func(r rune) bool { return r >= 0x80 }) < 0
		if inSubset != plain && plain {
			t.Fatalf("plain strings marshaled to %s", want)
		}
		got, ok := wireEncode(v.Interface())
		if ok != inSubset {
			t.Fatalf("codec encoded %s: %v, want %v", want, ok, inSubset)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("codec wrote %s, json.Marshal %s", got, want)
		}
		back := reflect.New(typ)
		if ok := wireDecode(want, back.Interface()); ok != inSubset {
			t.Fatalf("codec decoded %s: %v, want %v", want, ok, inSubset)
		}
		if inSubset {
			taken++
			if !reflect.DeepEqual(back.Elem().Interface(), v.Interface()) {
				t.Fatalf("codec decoded %s to %+v, want %+v", want, back.Elem().Interface(), v.Interface())
			}
		}
	}
	if taken < 10000 {
		t.Fatalf("only %d of 25000 values took the fast path", taken)
	}
}

// TestOversizeBodyRefused pins the one behaviour the codec's call site
// changed: the body is read whole before it is decoded, so a request whose
// first JSON value is complete but whose body runs past the 1 MiB cap is
// refused like any other oversize body (the streaming decoder used to stop
// reading at the end of the value and never saw the rest). Just inside the
// cap it is still accepted.
func TestOversizeBodyRefused(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown()
	h := srv.Handler()
	post := func(path string, body []byte) (int, string) {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rw.Code, rw.Body.String()
	}
	post("/v1/tenants", []byte(`{"id":"t","m":1}`))
	post("/v1/tenants/t/tasks", []byte(`{"name":"a","e":1,"p":2}`))
	value := `{"task":"a"}`
	inside := append([]byte(value), bytes.Repeat([]byte(" "), 1<<20-len(value))...)
	if code, reply := post("/v1/tenants/t/jobs", inside); code != http.StatusAccepted {
		t.Errorf("a body of exactly 1 MiB: %d %s", code, reply)
	}
	const tooLarge = "{\"error\":\"server: bad request body: http: request body too large\"}\n"
	if code, reply := post("/v1/tenants/t/jobs", append(inside, ' ')); code != http.StatusBadRequest || reply != tooLarge {
		t.Errorf("a complete value in a body of 1 MiB + 1: %d %s, want 400 %s", code, reply, tooLarge)
	}
	if code, reply := post("/v1/tenants/t/jobs", bytes.Repeat([]byte(" "), 1<<20+1)); code != http.StatusBadRequest || reply != tooLarge {
		t.Errorf("no value in a body of 1 MiB + 1: %d %s, want 400 %s", code, reply, tooLarge)
	}
}

// wireSeedBodies are bodies as real traffic holds them: every response of
// the write-path golden (whole lines, and the submit / batch / advance
// replies inside them), the requests of its script, and the decline table.
func wireSeedBodies(t testing.TB) []string {
	t.Helper()
	out := append([]string{
		`{"name":"a","e":1,"p":2}`, `{"name":"e","e":1,"p":1048577}`,
		`{"task":"a","key":"k1"}`, `{"task":"b","at":"0","earliness":1,"key":"k2"}`, `{"task":"a","earliness":-1}`,
		`{"jobs":[{"task":"a"},{"task":"b","key":"b1"},{"task":"c","at":"0"}]}`, `{"jobs":[]}`,
		`{"by":"3/2"}`, `{"until":"1"}`, `{"until":"4","by":"1"}`, `{}`,
		`{"admitted":true,"guarantee":"1","reason":"fits"}`,
	}, wireDeclineBodies...)
	golden, err := os.ReadFile(filepath.Join("testdata", "writepath.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		body, ok := strings.CutPrefix(line, "response ")
		if !ok {
			continue
		}
		out = append(out, body)
		var parts map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &parts); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		for _, k := range []string{"submit", "batch", "advance"} {
			if p, ok := parts[k]; ok {
				out = append(out, string(p))
			}
		}
	}
	return out
}

// replSeedLines are lines of the replication stream as handleReplLog writes
// them, one per frame of the parent-format journal.
func replSeedLines(t testing.TB) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join("testdata", "journal_pr16", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("journal_pr16 segments: %v %v", segs, err)
	}
	var out []string
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(data) >= 8 {
			n := int(binary.LittleEndian.Uint32(data))
			if n == 0 || len(data)-8 < n {
				break
			}
			out = append(out, fmt.Sprintf(`{"crc":%d,"rec":%s}`, binary.LittleEndian.Uint32(data[4:]), data[8:8+n]))
			data = data[8+n:]
		}
	}
	return out
}

// TestReplLineFastPath: every frame of a real journal, framed as the leader
// frames it, decodes on the fast path to what Unmarshal and Verify make of
// it; a line that is off in any way is left to them.
func TestReplLineFastPath(t *testing.T) {
	lines := replSeedLines(t)
	if len(lines) < 20 {
		t.Fatalf("only %d seed lines", len(lines))
	}
	for _, line := range lines {
		got, ok := server.DecodeReplLine([]byte(line))
		if !ok {
			t.Fatalf("declined %s", line)
		}
		checkReplLine(t, []byte(line), got)
	}
	rec := `{"lsn":1,"op":"drain","tenant":"a"}`
	crc := crc32.ChecksumIEEE([]byte(rec))
	// White space between the frame's own tokens is inside the subset; next
	// to the record it would change the raw bytes, and is not.
	spaced := fmt.Sprintf(` { "crc" : %d , "rec" :%s}`, crc, rec)
	if got, ok := server.DecodeReplLine([]byte(spaced)); !ok {
		t.Errorf("declined %s", spaced)
	} else {
		checkReplLine(t, []byte(spaced), got)
	}
	for _, line := range []string{
		fmt.Sprintf(`{"crc":%d,"rec":%s}`, crc+1, rec),             // wrong checksum: Verify's to report
		fmt.Sprintf(`{"crc":0%d,"rec":%s}`, crc, rec),              // not a JSON number
		fmt.Sprintf(`{"crc":%d,"rec":%s }`, crc, rec),              // the raw record would stop short of the space
		fmt.Sprintf(`{"rec":%s,"crc":%d}`, rec, crc),               // valid, other order
		fmt.Sprintf(`{"crc":%d,"rec":%s,"x":{"rec":1}}`, crc, rec), // more members
		fmt.Sprintf(`{"crc":%d,"rec":%s},"x":{}}`, crc, rec),       // not JSON
		fmt.Sprintf(`{"crc":%d,"rec":%s}}`, crc, rec),
		fmt.Sprintf(`{"crc":4294967296,"rec":%s}`, rec),
		fmt.Sprintf(`{"crc":%d,"rec":%s}`, crc32.ChecksumIEEE([]byte(`{"lsn":1,"op":"drain","tenant":"é"}`)), `{"lsn":1,"op":"drain","tenant":"é"}`), // a record for encoding/json
		`{"crc":1,"rec":`, `{"crc":1,"rec":}`, `{"crc":`, `{"crc":1`, ``,
	} {
		if got, ok := server.DecodeReplLine([]byte(line)); ok {
			t.Errorf("took %s on the fast path: %+v", line, got)
		}
	}
}

// checkReplLine holds a fast-path result to the two steps it stands for.
func checkReplLine(t *testing.T, line []byte, got wal.Record) {
	t.Helper()
	var frame server.ReplFrame
	if err := json.Unmarshal(line, &frame); err != nil {
		t.Fatalf("DecodeReplLine took %q; json.Unmarshal: %v", line, err)
	}
	want, err := frame.Verify()
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeReplLine(%q) = %+v; Verify = %+v, %v", line, got, want, err)
	}
}

// FuzzWireMatchesJSON is the API codec's contract, both directions, on all
// eight types at once. Arbitrary bytes: if DecodeWire accepts them,
// encoding/json with unknown fields refused — the server's decoder — accepts
// them too, as does plain Unmarshal — the router's — and all three yield the
// same value; a line DecodeReplLine accepts, Unmarshal and Verify accept, to
// the same record. Arbitrary field values: if AppendWire encodes them, the
// bytes are json.Marshal's, and decode back to the value.
func FuzzWireMatchesJSON(f *testing.F) {
	for _, body := range wireSeedBodies(f) {
		f.Add([]byte(body), "", "", "", int64(0), int64(0), false)
	}
	for _, line := range replSeedLines(f) {
		f.Add([]byte(line), "", "", "", int64(0), int64(0), false)
	}
	f.Add([]byte(`{}`), "web", "3/2", "churn-1/2/3", int64(2), int64(-1), true)
	f.Add([]byte(`{}`), "a<b", `q"uote`, "tên", int64(math.MaxInt64), int64(math.MinInt64), false)

	f.Fuzz(func(t *testing.T, body []byte, s1, s2, s3 string, n1, n2 int64, flag bool) {
		for _, zero := range codedTypes[:8] {
			typ := reflect.TypeOf(zero)
			got := reflect.New(typ)
			if !wireDecode(body, got.Interface()) {
				if !got.Elem().IsZero() {
					t.Fatalf("%s declined %q but stored %+v", typ.Name(), body, got.Elem().Interface())
				}
				continue
			}
			strict, loose := reflect.New(typ), reflect.New(typ)
			if err := strictUnmarshal(body, strict.Interface()); err != nil {
				t.Fatalf("%s: DecodeWire accepted %q, the strict decoder: %v", typ.Name(), body, err)
			}
			if err := json.Unmarshal(body, loose.Interface()); err != nil {
				t.Fatalf("%s: DecodeWire accepted %q, json.Unmarshal: %v", typ.Name(), body, err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), strict.Elem().Interface()) || !reflect.DeepEqual(got.Elem().Interface(), loose.Elem().Interface()) {
				t.Fatalf("%s: DecodeWire(%q) = %+v, encoding/json = %+v", typ.Name(), body, got.Elem().Interface(), strict.Elem().Interface())
			}
		}
		if rec, ok := server.DecodeReplLine(body); ok {
			checkReplLine(t, body, rec)
		}

		job := server.SubmitJobRequest{Task: s1, At: s2, Earliness: n1, Key: s3}
		result := server.SubmitJobResponse{At: s2, Pending: int(n2)}
		for _, v := range []any{
			job, server.SubmitJobsRequest{Jobs: []server.SubmitJobRequest{job, {Task: s3}, job}[:uint64(n2)%4]},
			server.AdvanceRequest{Until: s1, By: s2}, server.RegisterTaskRequest{Name: s1, E: n1, P: n2},
			result, server.SubmitJobsResponse{Accepted: int(n1), Results: []server.SubmitJobResponse{result, {At: s3}, result}[:uint64(n1)%4]},
			server.AdvanceResponse{Now: s3, Dispatched: n1, Pending: int(n2)},
			server.RegisterTaskResponse{Admitted: flag, Guarantee: s2, Reason: s3},
		} {
			enc, res := server.AppendWire([]byte("x"), v)
			if res != server.WireOK {
				if res != server.WireDeclined || string(enc) != "x" {
					t.Fatalf("AppendWire(%+v) = %q, %d", v, enc, res)
				}
				continue
			}
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc[1:], want) {
				t.Fatalf("AppendWire(%+v)\n got %s\nwant %s", v, enc[1:], want)
			}
			back := reflect.New(reflect.TypeOf(v))
			if !wireDecode(want, back.Interface()) || !reflect.DeepEqual(back.Elem().Interface(), v) {
				t.Fatalf("DecodeWire(%s) = %+v, want %+v on the fast path", want, back.Elem().Interface(), v)
			}
		}
	})
}
