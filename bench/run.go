package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// noCompaction is the -snapshot-every the routed_replica servers run
// with: far above any run's record count. At pfaird's default (4096) the
// follower wedges at the leader's first compaction — see README.md,
// "Defects recorded".
const noCompaction = 1 << 30

// runOpts are the knobs of one pass that are not part of the workload.
type runOpts struct {
	workDir string // temp data dirs are made under it
	setups  int    // set-ups to time at most; the last one carries the load
	// setupFor ends the set-ups sooner: after this many seconds, once three
	// are made.
	setupFor float64
	trace    bool // record spans and run the extra samplers of a traced pass
	// snapshotEvery overrides the workload's choice for the leader and
	// follower (the replica_survives_compaction probe); 0 = workload's.
	snapshotEvery int
	// direct sends a routed workload's traffic straight to the leader,
	// with no router and no follower (the router_hop_us baseline).
	direct bool
	// closing, if set, runs after the checks while the servers are still
	// up (the failover probe of a traced routed pass).
	closing func(ctx context.Context, hc *http.Client, cl *rig, ps *pass)
}

// pass is everything one HTTP pass measured: metrics by name, the
// operation and check counts behind failed_share, and free-form notes.
type pass struct {
	m         map[string]float64
	attempted int64
	failed    int64
	errs      []string
	notes     []string
	spans     []span
	recs      []*recorder
	// snapshot is the payload of the data dir's last snapshot, kept for
	// the wal.compact_ms probe of a traced pass.
	snapshot []byte
}

// check files one output check of the closing phase.
func (ps *pass) check(ok bool, format string, args ...any) {
	ps.attempted++
	if !ok {
		ps.failed++
		ps.errs = append(ps.errs, "check: "+fmt.Sprintf(format, args...))
	}
}

// rig is the set of servers one workload runs against.
type rig struct {
	leader, follower, router *node
	entry                    string // base URL the clients use
	dirs                     []string
}

func (c *rig) nodes() []*node {
	var out []*node
	for _, n := range []*node{c.router, c.follower, c.leader} {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// destroy kills the servers and removes their data dirs.
func (c *rig) destroy() {
	for _, n := range c.nodes() {
		n.kill()
	}
	for _, d := range c.dirs {
		_ = os.RemoveAll(d)
	}
}

func (c *rig) tempDir(workDir, pattern string) (string, error) {
	d, err := os.MkdirTemp(workDir, pattern)
	if err == nil {
		c.dirs = append(c.dirs, d)
	}
	return d, err
}

// startCluster starts what the workload needs and returns once every
// node answers /healthz with 200.
func startCluster(ctx context.Context, L launcher, hc *http.Client, w *workload, o runOpts) (*rig, error) {
	c := &rig{}
	fail := func(err error) (*rig, error) { c.destroy(); return nil, err }
	spec := serverSpec{snapshotEvery: o.snapshotEvery}
	if w.routed && spec.snapshotEvery == 0 {
		spec.snapshotEvery = noCompaction
	}
	var err error
	if w.durable {
		if spec.dataDir, err = c.tempDir(o.workDir, "pfaird-leader-"); err != nil {
			return fail(err)
		}
	}
	if c.leader, err = L.pfaird(spec); err != nil {
		return fail(err)
	}
	if err := waitHealthy(ctx, hc, c.leader.url); err != nil {
		return fail(err)
	}
	c.entry = c.leader.url
	if !w.routed || o.direct {
		return c, nil
	}
	fspec := serverSpec{snapshotEvery: spec.snapshotEvery, follow: c.leader.url}
	if fspec.dataDir, err = c.tempDir(o.workDir, "pfaird-follower-"); err != nil {
		return fail(err)
	}
	if c.follower, err = L.pfaird(fspec); err != nil {
		return fail(err)
	}
	if err := waitHealthy(ctx, hc, c.follower.url); err != nil {
		return fail(err)
	}
	if c.router, err = L.router(c.leader.url + "," + c.follower.url); err != nil {
		return fail(err)
	}
	if err := waitHealthy(ctx, hc, c.router.url); err != nil {
		return fail(err)
	}
	c.entry = c.router.url
	return c, nil
}

// setUp is what setup_s times: process start → /healthz ok → the first
// stage's tenants created and their tasks registered. Compile time is not
// part of it (run.sh builds before the program starts).
func setUp(ctx context.Context, L launcher, hc *http.Client, w *workload, o runOpts, ref *refServer) (*rig, *recorder, float64, error) {
	t0 := time.Now()
	c, err := startCluster(ctx, L, hc, w, o)
	if err != nil {
		return nil, nil, 0, err
	}
	rec := newRecorder(0, lvHTTP, false)
	rec.ref = func() (opTime, error) { return ref.roundTrip(ctx) }
	t := newHTTPTarget(ctx, c.entry, hc, rec)
	for _, stages := range w.clients {
		for _, p := range stages[0] {
			if err := prepare(t, p, rec); err != nil {
				c.destroy()
				return nil, nil, 0, fmt.Errorf("set-up: %w", err)
			}
		}
	}
	return c, rec, time.Since(t0).Seconds(), nil
}

// runHTTP is one pass of a workload over HTTP against freshly started
// servers: timed set-ups, the closed-loop load, the workload's closing
// phase (restart, replay, catch-up), the output checks.
func runHTTP(ctx context.Context, L launcher, w *workload, o runOpts) (*pass, error) {
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: len(w.clients) + 2, // one kept-alive connection per client, plus scrapes
	}}
	defer hc.CloseIdleConnections()
	ps := &pass{m: map[string]float64{}}
	ref, err := startRef()
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	// Set up again and again for o.setupFor and report the median: one
	// set-up is a few process starts, ten milliseconds, and the host's speed
	// moves from one second to the next. Every set-up makes reference round
	// trips between its requests (prepare), and the median set-up is scaled
	// by the median of them all, as the load's times are scaled by theirs
	// (ref.go). A set-up that takes longer (wide_sched's 2696 registrations)
	// is still made at least three times.
	var cl *rig
	var setupRec *recorder
	var setups []float64
	var setupRefs []int64
	for i, t0 := 0, time.Now(); i < o.setups && !(i >= 3 && time.Since(t0).Seconds() > o.setupFor); i++ {
		if cl != nil {
			cl.destroy()
		}
		var s float64
		var err error
		if cl, setupRec, s, err = setUp(ctx, L, hc, w, o, ref); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		setupRefs = append(setupRefs, setupRec.lat[kRef]...)
	}
	defer cl.destroy()
	ps.m["setup_raw_s"] = median(setups)
	ps.m["setup_s"] = median(setups) * refNominalUs / (float64(pctl(setupRefs, 0.5)) / 1e3)
	ps.m["admission.register_http_us"] = float64(pctl(setupRec.lat[kRegister], 0.5)) / 1e3
	for _, n := range cl.nodes() {
		ps.notes = append(ps.notes, "server: "+n.cmdline)
	}
	if w.durable {
		ps.notes = append(ps.notes, "data dir filesystem: "+fsType(cl.leader.dataDir))
	}

	var tail *tailReader
	if w.follow {
		p := w.clients[0][0][0]
		tail = startTail(ctx, hc, cl.entry, p.id, p.dispatches())
		defer tail.cancel()
	}
	var lag *lagSampler
	if o.trace && cl.follower != nil {
		lag = startLagSampler(ctx, hc, cl.leader.url, cl.follower.url)
		defer lag.cancel()
	}

	before := scrape(ctx, hc, cl)
	rss := startRSSSampler(cl.leader.pid)
	recs := make([]*recorder, len(w.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, stages := range w.clients {
		rec := newRecorder(i, lvHTTP, o.trace)
		recs[i] = rec
		if tail != nil {
			rec.onAdvance = tail.onAdvance
		}
		rec.ref = func() (opTime, error) { return ref.roundTrip(ctx) }
		if _, err := rec.ref(); err != nil { // opens the connection before the clock starts
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = runStages(newHTTPTarget(ctx, cl.entry, hc, rec), stages, rec, true) // the error is in rec.errs
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	lastAck := time.Now()
	ps.notes = append(ps.notes, rss.stop())
	after := scrape(ctx, hc, cl)
	ps.recs = recs

	// --- what the load phase measured ---
	var submits, advances, refs []int64
	var requests, dispatches, retries int64
	for _, r := range recs {
		submits = append(append(submits, r.lat[kSubmit]...), r.lat[kBatch]...)
		advances = append(advances, r.lat[kAdvance]...)
		refs = append(refs, r.lat[kRef]...)
		requests += int64(len(r.lat[kSubmit]) + len(r.lat[kBatch]) + len(r.lat[kAdvance]))
		for _, d := range r.dispatched {
			dispatches += d
		}
		retries += r.retries429
		ps.attempted += r.ops + r.checks
		ps.failed += r.failed + r.checkFailed
		ps.errs = append(ps.errs, r.errs...)
		ps.spans = append(ps.spans, r.spans...)
	}
	if requests == 0 || dispatches == 0 || len(refs) == 0 {
		return ps, fmt.Errorf("no operation completed: %v", ps.errs)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	ps.m["requests_per_s"] = float64(requests) / wall
	ps.m["dispatches_per_s"] = float64(dispatches) / wall
	ps.m["submit_p50_us"] = us(pctl(submits, 0.5))
	ps.m["submit_p99_us"] = us(pctl(submits, 0.99))
	ps.m["advance_p50_us"] = us(pctl(advances, 0.5))
	ps.m["advance_p99_us"] = us(pctl(advances, 0.99))
	ps.notes = append(ps.notes, "submit "+tailNote(submits), "advance "+tailNote(advances),
		"submit / reference p50 by twentieth of client 0's load, us:"+windowsNote(append(recs[0].lat[kSubmit], recs[0].lat[kBatch]...), 20)+" /"+windowsNote(recs[0].lat[kRef], 20))
	ops := requests
	if w.perDispatch {
		ops = dispatches
	}
	ps.m["server_cpu_us_per_op"] = (after.cpu - before.cpu) * 1e6 / float64(ops)
	ps.m["rss_peak_mb"] = statusKB(cl.leader.pid, "VmHWM") / 1024

	// The gated times and rates: the same numbers on a host where the
	// reference round trip takes refNominalUs (ref.go).
	ps.m["ref.roundtrip_p50_us"] = us(pctl(refs, 0.5))
	scale := refNominalUs / ps.m["ref.roundtrip_p50_us"]
	ps.m["ref.scale"] = scale
	ps.m["submit_p50_norm_us"] = ps.m["submit_p50_us"] * scale
	ps.m["advance_p50_norm_us"] = ps.m["advance_p50_us"] * scale
	ps.m["server_cpu_norm_us_per_op"] = ps.m["server_cpu_us_per_op"] * scale
	ps.m["requests_norm_per_s"] = ps.m["requests_per_s"] / scale
	ps.m["dispatches_norm_per_s"] = ps.m["dispatches_per_s"] / scale
	ps.m["client.requests"] = float64(requests)
	ps.m["client.retries_429"] = float64(retries)
	ps.m["tenant.ring_full_429"] = float64(retries) // the same events, named from the server's side
	ps.m["tenant.rss_bytes_per_dispatch"] = (after.rssKB - before.rssKB) * 1024 / float64(dispatches)
	stallTotal, stallMax := stalls(recs)
	ps.m["tenant.stall_total_s"] = stallTotal
	ps.m["tenant.stall_max_ms"] = stallMax
	ps.m["tenant.stall_share"] = stallTotal / (wall * float64(len(w.clients))) // of the clients' time
	ps.m["wal.records_per_op"] = (after.appends - before.appends) / float64(requests)
	ps.m["wal.fsyncs_per_op"] = (after.fsyncs - before.fsyncs) / float64(requests)
	ps.m["wal.snapshots"] = after.snapshots - before.snapshots

	// --- closing phase and its checks ---
	if tail != nil {
		closeTail(ctx, hc, cl, w, tail, ps)
	}
	if cl.follower != nil {
		catchUp(ctx, hc, cl, lastAck, ps)
	}
	if lag != nil {
		ps.m["cluster.replica_lag_lsn_p99"] = float64(lag.stop())
	}
	if w.restart {
		if err := restart(ctx, L, hc, cl, w, ps); err != nil {
			return ps, err
		}
	}
	if w.durable {
		ps.m["data_dir_mb"] = float64(dirBytes(cl.leader.dataDir)) / (1 << 20)
		if raw, err := os.ReadFile(filepath.Join(cl.leader.dataDir, "snapshot.json")); err == nil {
			ps.m["tenant.snapshot_bytes"] = float64(len(raw))
			ps.snapshot = raw
		}
	}
	ps.m["client.errors"] = float64(ps.failed)
	ps.m["failed_share"] = float64(ps.failed) / float64(ps.attempted)
	if o.closing != nil {
		o.closing(ctx, hc, cl, ps)
	}
	return ps, nil
}

func (ps *pass) describeErrors(max int) string {
	if len(ps.errs) <= max {
		return strings.Join(ps.errs, "; ")
	}
	return strings.Join(ps.errs[:max], "; ") + fmt.Sprintf("; … and %d more", len(ps.errs)-max)
}
