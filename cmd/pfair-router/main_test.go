package main

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestPprofFlag boots the real router loop on a random port: -pprof serves
// the profile index on the proxy's own listener, -pprof=false does not, and
// either way the loop stops when its context does.
func TestPprofFlag(t *testing.T) {
	for _, on := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		addrCh := make(chan string, 1)
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, "127.0.0.1:0", "http://127.0.0.1:1", time.Second, 0, time.Second, on,
				func(a string) { addrCh <- a })
		}()
		select {
		case addr := <-addrCh:
			resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := map[bool]int{true: http.StatusOK, false: http.StatusNotFound}[on]; resp.StatusCode != want {
				t.Errorf("-pprof=%v: /debug/pprof/cmdline: status %d, want %d", on, resp.StatusCode, want)
			}
		case err := <-done:
			t.Fatalf("run exited before listening: %v", err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run: %v", err)
		}
	}
}
