package scenario

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

func loadSpec(t *testing.T, name string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestScenarioGoldenTrace is the acceptance check for determinism: the
// smoke spec's trace must match the checked-in golden bytes exactly, and
// two runs in the same process must agree byte for byte. Regenerate with
// go test ./internal/scenario -run GoldenTrace -update after an
// intentional schema or generator change.
func TestScenarioGoldenTrace(t *testing.T) {
	spec := loadSpec(t, "smoke.json")
	encode := func() []byte {
		w, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(w, NewExecTarget())
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeTrace(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := encode(), encode()
	if !bytes.Equal(first, second) {
		t.Fatal("two runs of the same spec produced different trace bytes")
	}

	golden := filepath.Join("testdata", "smoke.trace")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("trace diverged from golden %s (%d vs %d bytes); run with -update if the change is intentional",
			golden, len(first), len(want))
	}
}

// TestReplayReproducesDispatches: replaying a recorded trace must land on
// the exact recorded dispatch sequence, and a tampered dispatch record
// must make the replay fail.
func TestReplayReproducesDispatches(t *testing.T) {
	recs := sampleRecords(t)
	res, err := Replay(recs)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Report.Dispatches == 0 {
		t.Fatal("replay produced no dispatches")
	}

	tampered := append([]Record{}, recs...)
	for i := range tampered {
		if tampered[i].Kind == KindDispatch {
			tampered[i].Proc++
			break
		}
	}
	if _, err := Replay(tampered); err == nil {
		t.Fatal("replay accepted a tampered dispatch record")
	}
}

// TestHTTPTargetCallEndsAtDeadline: a server that takes a request and never
// answers fails the call once CallTimeout has passed — a tenant create in
// Setup, a submit, and in Finish the drain and the dispatch replay alike —
// instead of hanging the run. The deadline is the test's to expire: each
// call must be bounded by CallTimeout, still be waiting while the server
// holds its request, and return once its deadline passes.
func TestHTTPTargetCallEndsAtDeadline(t *testing.T) {
	var expireLast func() // expires the newest call's deadline
	defer func(f func(context.Context, time.Duration) (context.Context, context.CancelFunc)) { withTimeout = f }(withTimeout)
	withTimeout = func(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
		if d != CallTimeout {
			t.Errorf("call bounded by %v, want CallTimeout = %v", d, CallTimeout)
		}
		ctx := &expiry{Context: parent, done: make(chan struct{})}
		var once sync.Once
		expireLast = func() { once.Do(func() { close(ctx.done) }) }
		return ctx, expireLast
	}

	held, release := make(chan struct{}, 1), make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/tenants/late/drain":
			w.Write([]byte("{}"))
			return
		case "/v1/tenants/late/dispatches":
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush()
		}
		held <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer hs.Close()
	defer close(release)

	h := &HTTPTarget{Ctx: context.Background(), C: client.New(hs.URL, nil)}
	for _, tc := range []struct {
		name     string
		call     func() error
		deadline bool // the error says the deadline passed
	}{
		{"setup", func() error { return h.Setup(ClientSetup{ID: "hung"}, 1, "PD2") }, true},
		{"submit", func() error { return h.Submit("hung", "t", rat.FromInt(0)) }, true},
		{"replay", func() error { _, err := h.Finish("late"); return err }, false},
		{"drain", func() error { _, err := h.Finish("hung"); return err }, true},
	} {
		done := make(chan error, 1)
		go func() { done <- tc.call() }()
		<-held // the server holds the call's request: only its deadline ends it
		select {
		case err := <-done:
			t.Errorf("%s returned before its deadline passed: %v", tc.name, err)
			continue
		default:
		}
		expireLast()
		err := <-done
		if err == nil {
			t.Errorf("%s: a server that never answers gave no error", tc.name)
			continue
		}
		if tc.deadline && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: %v, want the deadline's error", tc.name, err)
		}
	}
}

// expiry is a call's deadline the test passes on cue: Done closes and Err
// says DeadlineExceeded then, as a context.WithTimeout's would.
type expiry struct {
	context.Context
	done chan struct{}
}

func (e *expiry) Done() <-chan struct{} { return e.done }

func (e *expiry) Err() error {
	select {
	case <-e.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestExecAndHTTPTargetsAgree: the same workload driven through a live
// pfaird must produce the identical dispatch log (and therefore the
// identical trace) as the in-process executive — the server is the
// executive behind an API, not a different scheduler.
func TestExecAndHTTPTargetsAgree(t *testing.T) {
	// "pd2" is a spelling prio.ByName — and so Spec.Validate and the
	// in-process target — takes; the service used to refuse it with 400.
	for _, policy := range []string{"PD2", "pd2"} {
		t.Run(policy, func(t *testing.T) {
			spec := loadSpec(t, "smoke.json")
			spec.Policy = policy
			w, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			execRes, err := Run(w, NewExecTarget())
			if err != nil {
				t.Fatal(err)
			}

			srv := server.New()
			defer srv.Shutdown()
			hs := hoptest.NewServer(srv.Handler())
			defer hs.Close()
			httpRes, err := Run(w, &HTTPTarget{Ctx: context.Background(), C: client.New(hs.URL, nil)})
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(execRes.Dispatches, httpRes.Dispatches) {
				t.Fatal("in-process and HTTP targets disagree on the dispatch log")
			}
			if !reflect.DeepEqual(execRes.Records, httpRes.Records) {
				t.Fatal("in-process and HTTP targets disagree on the trace records")
			}
			// Whatever the spelling, the service reports (and journals)
			// the policy's canonical name.
			tenants, err := client.New(hs.URL, nil).Tenants(context.Background())
			if err != nil || len(tenants) == 0 {
				t.Fatalf("listing tenants: %v (%d)", err, len(tenants))
			}
			for _, ti := range tenants {
				if ti.Policy != "PD2" {
					t.Errorf("tenant %s reports policy %q, want PD2", ti.ID, ti.Policy)
				}
			}
		})
	}
}
