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
// Without it, state is in memory only. Either way the server is one
// server.Open call over the server.Options the flags fill in.
//
// On SIGINT/SIGTERM the daemon drains: in-flight dispatch streams flush
// and terminate, the listener shuts down gracefully, and a durable daemon
// writes one final snapshot so the next boot replays nothing.
//
// Observability: /metrics serves latency histograms (submit→ack, journal
// append/fsync, dispatch lag in quanta) next to the counters,
// /v1/tenants/{id}/trace streams per-command lifecycle events as NDJSON
// (each tenant keeps its last defaultTraceCap = 4096), and -pprof (default
// on) mounts net/http/pprof under /debug/pprof/ on the same listener.
//
// Each tenant applies mutations in the order they join its one bounded
// queue of defaultSubmitRing = 256 commands, drained one caller at a time
// by the requests waiting on it (a tenant has no goroutine of its own); a
// full queue answers 429 so overload surfaces as client backpressure
// instead of queue growth, while reads are served lock-free from
// published snapshots.
//
// With -autoscale the daemon runs an elastic-capacity control loop
// against itself: every 5 s it scrapes its own per-tenant dispatch-lag
// histograms and grows or drain-shrinks each tenant's processor count
// within [-autoscale-min, -autoscale-max], with hysteresis, a 30 s
// per-tenant cooldown, and token-bucket admission on its own actions — the
// constants of internal/autoscale (DESIGN.md §15). Autoscaled resizes go
// through POST /v1/tenants/{id}/resize like manual ones, so they are
// journaled and replicated identically.
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
	"strings"
	"syscall"
	"time"

	"desyncpfair/internal/autoscale"
	"desyncpfair/internal/client"
	"desyncpfair/internal/cluster"
	"desyncpfair/internal/hop"
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

// config is the daemon's flags: the server's own options, bound straight
// into a server.Options, and what only the daemon uses.
type config struct {
	server server.Options
	addr   string
	grace  time.Duration
	pprof  bool
	follow string // the leader's base URL; sets server.Follower

	autoscale    bool
	autoscaleMin int
	autoscaleMax int
}

func main() {
	var cfg config
	opts := &cfg.server
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.grace, "grace", 10*time.Second, "graceful shutdown timeout")
	flag.StringVar(&opts.DataDir, "data-dir", "", "directory for the write-ahead log and snapshots (empty = in-memory only)")
	flag.IntVar(&opts.FsyncEvery, "fsync-every", 64, "group-commit: an ack leaves fewer than this many journal frames unsynced (one frame per command, a batch included, plus one digest per dispatching command)")
	flag.DurationVar(&opts.FsyncMaxDelay, "fsync-max-delay", server.DefaultFsyncMaxDelay, "upper bound on how long a journaled record may wait for its fsync (0 = the default; negative disables the timer)")
	flag.IntVar(&opts.SnapshotEvery, "snapshot-every", server.DefaultSnapshotEvery, "fold the journal into a snapshot after this many jobs, other commands and digests (a batch counts as its jobs)")
	flag.BoolVar(&cfg.pprof, "pprof", true, "serve net/http/pprof profiles under /debug/pprof/")
	flag.StringVar(&cfg.follow, "follow", "", "run as a read-only replica of the leader at this base URL (requires -data-dir)")
	flag.BoolVar(&cfg.autoscale, "autoscale", false, "watch per-tenant dispatch-lag histograms and resize tenant capacity automatically")
	flag.IntVar(&cfg.autoscaleMin, "autoscale-min", 1, "lower bound on autoscaled per-tenant M")
	flag.IntVar(&cfg.autoscaleMax, "autoscale-max", 64, "upper bound on autoscaled per-tenant M")
	flag.Parse()

	if err := serve(context.Background(), cfg, nil); err != nil {
		log.Fatalf("pfaird: %v", err)
	}
}

// serve runs the daemon until ctx is cancelled or SIGINT/SIGTERM arrives.
// ready, if non-nil, is called with the bound address once the listener is
// up — tests use it with addr ":0".
func serve(ctx context.Context, cfg config, ready func(addr string)) error {
	// A leader is http://host:port, as a router backend is: a trailing slash
	// is dropped, as ParseGroups drops it, and anything else fails Bootstrap.
	cfg.follow = strings.TrimRight(cfg.follow, "/")
	opts := cfg.server
	opts.Follower = cfg.follow != ""
	if opts.Follower {
		if opts.DataDir == "" {
			return errors.New("-follow requires -data-dir (a follower's journal is its promotion state)")
		}
		log.Printf("pfaird: bootstrapping follower of %s", cfg.follow)
		if err := cluster.Bootstrap(opts.DataDir, cfg.follow, nil, nil); err != nil {
			return err
		}
	}
	srv, err := server.Open(opts)
	if err != nil {
		return err
	}
	var follower *cluster.Follower
	if opts.Follower {
		follower = cluster.StartFollower(srv, cfg.follow, nil)
		log.Printf("pfaird: following %s from LSN %d", cfg.follow, srv.AppliedLSN()+1)
	}
	if rec := srv.Recovery(); rec != nil {
		log.Printf("pfaird: recovered %d tenant(s) from %s (%d command(s) total, %d record(s) replayed, %d byte(s) truncated)",
			rec.Tenants, opts.DataDir, rec.Commands, rec.RecordsReplayed, rec.TruncatedBytes)
		if rec.ReplayErrors > 0 || rec.DispatchMismatches > 0 {
			log.Printf("pfaird: WARNING: recovery degraded: %d replay error(s), %d dispatch mismatch(es)",
				rec.ReplayErrors, rec.DispatchMismatches)
		}
	}
	if cfg.pprof {
		srv.EnablePprof()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &hop.Server{Handler: srv.Handler()}

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
			MinM: cfg.autoscaleMin,
			MaxM: cfg.autoscaleMax,
		}, client.New(selfURL(ln.Addr()), nil))
		log.Printf("pfaird: autoscaler on (M ∈ [%d, %d])", cfg.autoscaleMin, cfg.autoscaleMax)
		go scaler.Run(ctx, log.Printf)
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
