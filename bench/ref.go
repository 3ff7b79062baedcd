package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"desyncpfair/internal/server"
)

// The reference round trip.
//
// This host is one or two virtual CPUs of a shared machine, and its speed
// moves by a third over tens of seconds as the neighbours come and go:
// user time, system time and every latency quantile of a run scale
// together (README.md, "Steadiness"). No statistic taken inside a run
// removes a factor that holds for the whole run, so the benchmark measures
// the factor instead: after every advance each client makes one round trip
// to a tiny HTTP server inside the benchmark's own process — the same
// net/http, JSON and socket path a real request takes, and none of the
// program under test. A run's gated times are its measured times scaled by
// refNominalUs / (the run's median reference round trip): what they would
// read on a host where that round trip takes exactly refNominalUs. The
// reference is the benchmark's own code, identical on a parent commit and
// on a change, so a change to the program moves the scaled numbers by
// exactly as much as it moves the raw ones.
//
// The nominal value is what this host reads in a quiet spell, so that a
// scaled number is also roughly the raw number of a quiet run. The set-up
// time is scaled the same way, by the round trips made between the set-ups'
// own requests.
const refNominalUs = 80

type refServer struct {
	url string
	srv *http.Server
	hc  *http.Client
}

var refBody, _ = json.Marshal(server.SubmitJobRequest{Task: "t0", Key: "r0j0"})

func startRef() (*refServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.SubmitJobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(server.AdvanceResponse{Dispatched: 1})
	})}
	go func() { _ = srv.Serve(ln) }()
	return &refServer{
		url: "http://" + ln.Addr().String() + "/ref",
		srv: srv,
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}, nil
}

func (r *refServer) stop() {
	r.hc.CloseIdleConnections()
	_ = r.srv.Close()
}

// roundTrip is one reference request, timed like any other operation.
func (r *refServer) roundTrip(ctx context.Context) (opTime, error) {
	return timed(func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(refBody))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var out server.AdvanceResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK || out.Dispatched != 1 {
			return fmt.Errorf("reference server answered HTTP %d %+v", resp.StatusCode, out)
		}
		return nil
	})
}
