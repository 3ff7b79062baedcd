package hop

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkInbound prices the inbound half alone: one keyed-submit-shaped
// request per iteration — a POST of a small JSON body answered 202 with a
// small JSON reply — from an Upstream to a trivial handler over loopback TCP.
// nethttp serves it through net/http's server, the design Server replaced,
// kept as its baseline; hop through Server. Run it at -cpu 1, as the
// repository benchmark runs its processes: the difference is the server's
// CPU per request, not the wake-up latency of a second core.
func BenchmarkInbound(b *testing.B) {
	for _, name := range []string{"nethttp", "hop"} {
		b.Run(name, func(b *testing.B) { benchInbound(b, name == "hop") })
	}
}

func benchInbound(b *testing.B, viaHop bool) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	})
	var url string
	if viaHop {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &Server{Handler: h}
		go srv.Serve(ln)
		defer srv.Close()
		url = "http://" + ln.Addr().String()
	} else {
		ts := httptest.NewServer(h)
		defer ts.Close()
		url = ts.URL
	}
	up, err := New(url)
	if err != nil {
		b.Fatal(err)
	}
	defer up.CloseIdle()
	body := []byte(`{"task":"t3","key":"k12345"}`)
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := up.RoundTrip(ctx, http.MethodPost, "/v1/tenants/bench/jobs", "application/json", body)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
}
