// Command pfaird serves the multi-tenant Pfair scheduling service over
// HTTP: tenants are isolated PD²-DVQ online executives, tasks are
// admission-checked against Σwt ≤ M, and dispatch decisions stream to
// followers as newline-delimited JSON. See internal/server for the API and
// TUTORIAL.md ("Running pfaird") for a curl walkthrough.
//
// Usage:
//
//	pfaird -addr :8080 -data-dir /var/lib/pfaird
//
// With -data-dir the daemon is durable: every tenant mutation is journaled
// to a write-ahead log before it is applied, and a restart rebuilds the
// registry — tenants, admitted tasks, virtual time, and the full dispatch
// history that ?from= stream replay serves — from the latest snapshot plus
// the log tail (TUTORIAL.md, "Restarting pfaird without losing tenants").
// Without it, state is in-memory only, as in PR 2.
//
// On SIGINT/SIGTERM the daemon drains: in-flight dispatch streams flush
// and terminate, the listener shuts down gracefully, and a durable daemon
// writes one final snapshot so the next boot replays nothing.
//
// Observability: /metrics serves latency histograms (submit→ack, journal
// append/fsync, dispatch lag in quanta) next to the counters,
// /v1/tenants/{id}/trace streams per-command lifecycle events as NDJSON
// (retention set by -trace-buffer), and -pprof (default on) mounts
// net/http/pprof under /debug/pprof/ on the same listener.
//
// Each tenant applies mutations on a single-writer event loop fed by a
// bounded submit ring (-submit-ring, default 256); a full ring answers
// 429 so overload surfaces as client backpressure instead of queue
// growth, while reads are served lock-free from published snapshots.
//
// With -autoscale the daemon runs an elastic-capacity control loop
// against itself: it scrapes its own per-tenant dispatch-lag histograms
// and grows or drain-shrinks each tenant's processor count within
// [-autoscale-min, -autoscale-max], with hysteresis, a per-tenant
// cooldown, and token-bucket admission on its own actions (DESIGN.md
// §15). Autoscaled resizes go through POST /v1/tenants/{id}/resize like
// manual ones, so they are journaled and replicated identically.
//
// With -follow <leader-url> the daemon runs as a read-only replica: it
// bootstraps from the leader's snapshot, tails the leader's journal over
// /v1/replication/log, and answers 503 to mutations until it is promoted
// (POST /v1/cluster/promote — usually by pfair-router on leader failure).
// See DESIGN.md §13 and TUTORIAL.md §10.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"desyncpfair/internal/autoscale"
	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/server"
)

// selfURL turns the bound listen address into a base URL the in-process
// autoscaler can dial; wildcard hosts dial back via loopback.
func selfURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

type config struct {
	addr          string
	grace         time.Duration
	dataDir       string
	fsyncEvery    int
	fsyncMaxDelay time.Duration
	snapshotEvery int
	pprof         bool
	traceBuffer   int
	submitRing    int
	streamMaxLag  int64
	streamStall   time.Duration
	follow        string

	autoscale         bool
	autoscaleInterval time.Duration
	autoscaleMin      int
	autoscaleMax      int
	autoscaleCooldown time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.grace, "grace", 10*time.Second, "graceful shutdown timeout")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "directory for the write-ahead log and snapshots (empty = in-memory only)")
	flag.IntVar(&cfg.fsyncEvery, "fsync-every", 64, "group-commit: an ack leaves fewer than this many journal frames unsynced (one frame per command, a batch included, plus one digest per dispatching command)")
	flag.DurationVar(&cfg.fsyncMaxDelay, "fsync-max-delay", 100*time.Millisecond, "upper bound on how long a journaled record may wait for its fsync (0 disables the timer)")
	flag.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096, "fold the journal into a snapshot after this many jobs, other commands and digests (a batch counts as its jobs)")
	flag.BoolVar(&cfg.pprof, "pprof", true, "serve net/http/pprof profiles under /debug/pprof/")
	flag.IntVar(&cfg.traceBuffer, "trace-buffer", 4096, "per-tenant trace-ring retention in events (GET /v1/tenants/{id}/trace)")
	flag.IntVar(&cfg.submitRing, "submit-ring", 256, "per-tenant submit-ring capacity; a full ring answers 429 backpressure")
	flag.Int64Var(&cfg.streamMaxLag, "stream-max-lag", server.DefaultStreamMaxLag, "evict a following dispatch stream whose subscriber trails the tenant head by more than this many records (410 + resume hint; negative disables)")
	flag.DurationVar(&cfg.streamStall, "stream-stall", server.DefaultStreamStall, "sever a streamed connection whose single write blocks longer than this (negative disables)")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only replica of the leader at this base URL (requires -data-dir)")
	flag.BoolVar(&cfg.autoscale, "autoscale", false, "watch per-tenant dispatch-lag histograms and resize tenant capacity automatically")
	flag.DurationVar(&cfg.autoscaleInterval, "autoscale-interval", 5*time.Second, "scrape/decide period of the autoscaler")
	flag.IntVar(&cfg.autoscaleMin, "autoscale-min", 1, "lower bound on autoscaled per-tenant M")
	flag.IntVar(&cfg.autoscaleMax, "autoscale-max", 64, "upper bound on autoscaled per-tenant M")
	flag.DurationVar(&cfg.autoscaleCooldown, "autoscale-cooldown", 30*time.Second, "per-tenant quiet period after an autoscaler action (doubled after 429 backpressure)")
	flag.Parse()

	if err := serve(context.Background(), cfg, nil); err != nil {
		log.Fatalf("pfaird: %v", err)
	}
}

// serve runs the daemon until ctx is cancelled or SIGINT/SIGTERM arrives.
// ready, if non-nil, is called with the bound address once the listener is
// up — tests use it with addr ":0".
func serve(ctx context.Context, cfg config, ready func(addr string)) error {
	var srv *server.Server
	var follower *cluster.Follower
	var err error
	if cfg.follow != "" && cfg.dataDir == "" {
		return errors.New("-follow requires -data-dir (a follower's journal is its promotion state)")
	}
	if cfg.dataDir != "" {
		maxDelay := cfg.fsyncMaxDelay
		if maxDelay == 0 {
			maxDelay = -1 // flag 0 = disabled; Options 0 = default
		}
		if cfg.follow != "" {
			log.Printf("pfaird: bootstrapping follower of %s", cfg.follow)
			if err := cluster.Bootstrap(cfg.dataDir, cfg.follow, nil, nil); err != nil {
				return err
			}
		}
		srv, err = server.Open(server.Options{
			DataDir:            cfg.dataDir,
			FsyncEvery:         cfg.fsyncEvery,
			FsyncMaxDelay:      maxDelay,
			SnapshotEvery:      cfg.snapshotEvery,
			TraceBuffer:        cfg.traceBuffer,
			SubmitRing:         cfg.submitRing,
			StreamMaxLag:       cfg.streamMaxLag,
			StreamStallTimeout: cfg.streamStall,
			Follower:           cfg.follow != "",
		})
		if err != nil {
			return err
		}
		if cfg.follow != "" {
			follower = cluster.StartFollower(srv, cfg.follow, nil)
			log.Printf("pfaird: following %s from LSN %d", cfg.follow, srv.AppliedLSN()+1)
		}
		rec := srv.Recovery()
		log.Printf("pfaird: recovered %d tenant(s) from %s (%d command(s) total, %d record(s) replayed, %d byte(s) truncated)",
			rec.Tenants, cfg.dataDir, rec.Commands, rec.RecordsReplayed, rec.TruncatedBytes)
		if rec.ReplayErrors > 0 || rec.DispatchMismatches > 0 {
			log.Printf("pfaird: WARNING: recovery degraded: %d replay error(s), %d dispatch mismatch(es)",
				rec.ReplayErrors, rec.DispatchMismatches)
		}
	} else {
		srv = server.New()
		srv.SetTraceBuffer(cfg.traceBuffer)
		srv.SetSubmitRing(cfg.submitRing)
		srv.SetStreamPolicy(cfg.streamMaxLag, cfg.streamStall)
	}
	if cfg.pprof {
		srv.EnablePprof()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if follower != nil {
		go func() {
			if lsn, took, err := follower.WaitReady(ctx); err == nil {
				log.Printf("pfaird: caught up with %s at LSN %d, %s after opening: serving reads", cfg.follow, lsn, took.Round(time.Microsecond))
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("pfaird listening on %s", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	// The autoscaler is a loopback client of this daemon's own API: it
	// scrapes /metrics and posts resizes like any operator would, so the
	// capacity changes it makes are journaled, replicated, and visible
	// exactly like manual ones. On a follower every resize answers 503,
	// which the scaler treats as backpressure — it backs off until this
	// node is promoted, then takes over without a restart.
	if cfg.autoscale {
		scaler := autoscale.New(autoscale.Config{
			MinM:     cfg.autoscaleMin,
			MaxM:     cfg.autoscaleMax,
			Cooldown: cfg.autoscaleCooldown,
		}, client.New(selfURL(ln.Addr()), nil))
		log.Printf("pfaird: autoscaler on (every %s, M ∈ [%d, %d])",
			cfg.autoscaleInterval, cfg.autoscaleMin, cfg.autoscaleMax)
		go scaler.Run(ctx, cfg.autoscaleInterval, log.Printf)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("pfaird: shutting down, draining streams (up to %s)", cfg.grace)
	if follower != nil {
		follower.Seal() // stop replicating before the final snapshot
	}
	srv.Shutdown() // end dispatch streams first so Shutdown below can drain
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pfaird: forced close: %v", err)
	}
	// Final snapshot: the next boot starts from a compact directory with
	// nothing to replay.
	if err := srv.Close(); err != nil {
		log.Printf("pfaird: final snapshot failed: %v", err)
		return err
	}
	log.Printf("pfaird: bye")
	return nil
}
