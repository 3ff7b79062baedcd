package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

// fuzzDo drives one request straight through the handler and returns the
// status code. A handler panic fails the fuzz run; a 5xx on a fuzzed body
// is treated as a bug by the callers below.
func fuzzDo(h http.Handler, method, path string, body []byte) int {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	return rw.Code
}

func fuzzUtil(t *testing.T, h http.Handler) rat.Rat {
	t.Helper()
	req := httptest.NewRequest("GET", "/v1/tenants/fz", nil)
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("get tenant: %d", rw.Code)
	}
	var info server.TenantInfo
	if err := json.Unmarshal(rw.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	u, err := rat.Parse(info.Utilization)
	if err != nil {
		t.Fatalf("reported utilization %q: %v", info.Utilization, err)
	}
	return u
}

// FuzzTaskParams throws arbitrary task-parameter streams at the admission
// boundary of a live server and pins the feasibility iff of the paper:
// a register is admitted exactly when Σwt + e/p ≤ M, the server's reported
// utilization always tracks the admitted set, and it never exceeds M.
// Fuzzed junk bodies on every mutating endpoint must be rejected with a
// 4xx — never a panic, never a 5xx, never a utilization change.
//
// Weights are decoded with denominators ≤ 40 so the oracle's exact
// rational arithmetic stays far from int64 overflow (lcm(1..40) ≈ 5.3e15);
// the admission invariant is about capacity accounting, not integer width.
func FuzzTaskParams(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 2, 0, 39, 39, 1, 5, 7, 2, 0, 0})
	f.Add(uint8(1), []byte{0, 0, 0, 0, 0, 0, 3, 'j', 'u', 'n', 'k'})
	f.Add(uint8(3), []byte{1, 200, 13, 2, 9, 9, 0, 80, 80, 3, '{', '}'})
	f.Add(uint8(0), []byte(`{"name":"x","e":1,"p":1}`))
	f.Fuzz(func(t *testing.T, mRaw uint8, ops []byte) {
		if len(ops) > 512 {
			// The per-step oracle cross-check is quadratic in the op
			// count; long streams add no coverage, only wall clock.
			ops = ops[:512]
		}
		m := 1 + int(mRaw%3)
		srv := server.New()
		defer srv.Close()
		h := srv.Handler()
		body, _ := json.Marshal(server.CreateTenantRequest{ID: "fz", M: m})
		if code := fuzzDo(h, "POST", "/v1/tenants", body); code != http.StatusCreated {
			t.Fatalf("create tenant: %d", code)
		}

		capacity := rat.FromInt(int64(m))
		util := rat.Zero // oracle mirror of the admitted Σwt
		weights := []rat.Rat{}
		names := []string{}
		seq := 0

		for i := 0; i+2 < len(ops); i += 3 {
			op, eb, pb := ops[i], ops[i+1], ops[i+2]
			switch op % 4 {
			case 0, 1: // register a bounded, always-valid weight
				p := 1 + int64(pb%40)
				e := 1 + int64(eb)%p
				name := fmt.Sprintf("t%d", seq)
				seq++
				body, _ := json.Marshal(server.RegisterTaskRequest{Name: name, E: e, P: p})
				code := fuzzDo(h, "POST", "/v1/tenants/fz/tasks", body)
				w := rat.New(e, p)
				fits := !capacity.Less(util.Add(w))
				switch code {
				case http.StatusCreated:
					if !fits {
						t.Fatalf("over-admission: %d/%d admitted at Σwt=%s, M=%d", e, p, util, m)
					}
					util = util.Add(w)
					weights = append(weights, w)
					names = append(names, name)
				case http.StatusConflict:
					if fits {
						t.Fatalf("under-admission: %d/%d rejected at Σwt=%s, M=%d (feasibility is an iff)", e, p, util, m)
					}
				default:
					t.Fatalf("register %d/%d: unexpected status %d", e, p, code)
				}
			case 2: // unregister: an admitted task if any, else a bogus name
				name := "no-such-task"
				var w rat.Rat
				pick := -1
				if len(names) > 0 {
					pick = int(eb) % len(names)
					name, w = names[pick], weights[pick]
				}
				code := fuzzDo(h, "DELETE", "/v1/tenants/fz/tasks/"+name, nil)
				if code >= 500 {
					t.Fatalf("unregister %q: server error %d", name, code)
				}
				if code < 300 {
					if pick < 0 {
						t.Fatalf("unregister of unknown task %q succeeded", name)
					}
					util = util.Sub(w)
					names = append(names[:pick], names[pick+1:]...)
					weights = append(weights[:pick], weights[pick+1:]...)
				}
			case 3: // raw fuzz body at a mutating endpoint: 4xx or benign 2xx
				paths := []string{"/v1/tenants/fz/tasks", "/v1/tenants/fz/jobs", "/v1/tenants/fz/advance", "/v1/tenants"}
				path := paths[int(eb)%len(paths)]
				raw := ops[i:]
				code := fuzzDo(h, "POST", path, raw)
				if code >= 500 {
					t.Fatalf("fuzz body %q on %s: server error %d", raw, path, code)
				}
				if path == "/v1/tenants/fz/tasks" && code == http.StatusCreated {
					// The raw bytes happened to be a valid register; fold it
					// into the oracle so the running total stays exact.
					var req server.RegisterTaskRequest
					if err := json.Unmarshal(raw, &req); err != nil {
						t.Fatalf("201 for unparseable body %q", raw)
					}
					w := rat.New(req.E, req.P)
					if capacity.Less(util.Add(w)) {
						t.Fatalf("over-admission via raw body %q at Σwt=%s, M=%d", raw, util, m)
					}
					util = util.Add(w)
					names = append(names, req.Name)
					weights = append(weights, w)
				}
			}

			got := fuzzUtil(t, h)
			if !got.Equal(util) {
				t.Fatalf("reported utilization %s, oracle says %s", got, util)
			}
			if capacity.Less(got) {
				t.Fatalf("utilization %s exceeds M=%d", got, m)
			}
		}
	})
}
