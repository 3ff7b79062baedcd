// Command pfairload is the load generator for pfaird: it drives N tenants
// × K tasks with concurrent submit/advance traffic through internal/client
// and reports throughput and latency percentiles, so the service's
// capacity is measured rather than asserted. With no -addr it spins up an
// in-process pfaird on a loopback listener — in memory, or journaling to
// -data-dir, one server.Open either way — and load-tests that, which is
// also how the regression test keeps the ≥10k-request path honest.
//
// Usage:
//
//	pfairload -tenants 4 -tasks 8 -jobs 500 -workers 8
//	pfairload -addr http://localhost:8080 -tenants 2 -jobs 100
//
// Each task has weight 1/K, so every tenant's utilization is exactly 1 and
// admission always passes on m ≥ 1; the point here is request throughput,
// not schedulability stress. The load is a feasible closed loop: a submit
// is worth one slot of its tenant's time, and a worker advances a tenant
// by the submits it made to it since its last advance (-advance-every
// sets how many it lets accumulate), so the load phase does the run's
// scheduling and the final drain has only the last windows left. The run
// fails (exit 1) if any tenant ends with max tardiness above one quantum —
// Theorem 3 must survive load.
//
// The summary also reports measured capacity: the active M per tenant
// scraped from the server's pfaird_tenant_m gauges (which an autoscaler
// may have moved mid-run), and submits rejected 409 by a racing resize —
// counted on their own line, separate from 429 ring backpressure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/rat"
	"desyncpfair/internal/scenario"
	"desyncpfair/internal/server"
)

type config struct {
	addr         string // target server; "" = in-process loopback server
	tenants      int
	tasks        int // per tenant
	jobs         int // submits per (tenant, task)
	workers      int
	m            int // processors per tenant
	advanceEvery int // advance the tenant's virtual time every this many submits
	batch        int // jobs per submit request; >1 uses POST jobs:batch
	policy       string
	dataDir      string // durable in-process server (WAL under load)
	seed         int64  // worker-shuffle seed
	streams      int    // concurrent dispatch-stream followers per tenant; 0 disables
}

// bounded is ctx for one request of a run, ended after scenario.CallTimeout:
// a server that stops answering fails the run instead of hanging it. The live
// dispatch followers of -streams run until the run cancels them.
func bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, scenario.CallTimeout)
}

// report is one load run's outcome. The P* percentiles are measured by
// the client (request round trips); the SrvP* ones come from the server's
// own submit→ack histogram on /metrics, estimated by interpolation within
// its buckets — so the two views of the same load can be compared, and the
// error of each estimate is bounded by its bucket's width.
type report struct {
	Requests   int           // total HTTP requests issued (setup + load + drain)
	Wall       time.Duration // load-phase wall clock
	Throughput float64       // load-phase requests per second
	P50, P90   time.Duration
	P99, Max   time.Duration
	SrvP50     time.Duration // server-side submit→ack percentiles
	SrvP90     time.Duration
	SrvP99     time.Duration
	SrvCount   uint64 // observations behind the server-side percentiles
	// NoServerMetrics: the target answered /metrics with 404 — a
	// pfair-router, which serves none — so the Srv* fields and TenantM are
	// empty and the client-side numbers stand alone.
	NoServerMetrics bool
	Dispatched      int64  // scheduling decisions across all tenants
	MaxTardiness    string // worst tardiness across tenants (rat string)
	Backpressure    int64  // 429 replies (submit ring full); retried, not errors
	// ResizeRejected counts submits answered 409: a capacity rejection
	// from a resize racing the load (an autoscaler shrink, an operator
	// resize draining tasks out from under the run). Unlike 429
	// backpressure these are not retried — the job is skipped and
	// counted, because capacity said no rather than "not yet".
	ResizeRejected int64
	// TenantM is the active processor count per tenant at the end of the
	// run, scraped from the pfaird_tenant_m gauges — under an autoscaler
	// this is measured capacity, not the -m the run asked for.
	TenantM map[string]int
	// Fan-out side (-streams > 0): frames consumed across all followers,
	// their consumption rate, and the subscriber lag distribution in
	// records, sampled against the fastest follower of the same tenant
	// while the load ran.
	StreamFrames int64
	StreamRate   float64
	StreamLagP50 int64
	StreamLagP90 int64
	StreamLagP99 int64
	StreamLagMax int64
}

// fanout runs the -streams followers: cfg.streams dispatch-stream
// subscribers per tenant, all following from 0, each counting the frames
// it consumes. A sampler thread periodically records every follower's lag
// behind the fastest follower of its tenant — a client-side stand-in for
// the log tip that needs no extra server requests.
type fanout struct {
	cancel      context.CancelFunc
	wg          sync.WaitGroup
	frames      atomic.Int64
	pos         [][]*atomic.Int64 // [tenant][subscriber] next seq wanted
	samplerDone chan struct{}

	mu         sync.Mutex
	lagSamples []int64
}

func startStreams(parent context.Context, c *client.Client, tenants, streams int) *fanout {
	ctx, cancel := context.WithCancel(parent)
	f := &fanout{cancel: cancel, samplerDone: make(chan struct{})}
	f.pos = make([][]*atomic.Int64, tenants)
	for ti := range f.pos {
		f.pos[ti] = make([]*atomic.Int64, streams)
		for si := range f.pos[ti] {
			p := new(atomic.Int64)
			f.pos[ti][si] = p
			f.wg.Add(1)
			go f.follow(ctx, c, tenantID(ti), p)
		}
	}
	go f.sample(ctx)
	return f
}

func (f *fanout) follow(ctx context.Context, c *client.Client, tenant string, pos *atomic.Int64) {
	defer f.wg.Done()
	for ctx.Err() == nil {
		st, err := c.StreamDispatches(ctx, tenant, pos.Load(), true)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			time.Sleep(5 * time.Millisecond) // server not ready yet; retry
			continue
		}
		for _, err := st.Next(); err == nil; _, err = st.Next() {
			pos.Add(1)
			f.frames.Add(1)
		}
		st.Close()
	}
}

func (f *fanout) sample(ctx context.Context) {
	defer close(f.samplerDone)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			f.mu.Lock()
			for _, subs := range f.pos {
				var tip int64
				for _, p := range subs {
					if v := p.Load(); v > tip {
						tip = v
					}
				}
				for _, p := range subs {
					f.lagSamples = append(f.lagSamples, tip-p.Load())
				}
			}
			f.mu.Unlock()
		}
	}
}

// await blocks until every follower's position reaches its tenant's
// target (the post-drain dispatch count) or the deadline passes — the
// backlog is finite once the load stops, so normally this is just the
// followers finishing their tail.
func (f *fanout) await(targets []int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		caughtUp := true
		for ti, subs := range f.pos {
			for _, p := range subs {
				if p.Load() < targets[ti] {
					caughtUp = false
				}
			}
		}
		if caughtUp {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop cancels the followers and folds their counters into the report.
func (f *fanout) stop(rep *report, wall time.Duration) {
	f.cancel()
	f.wg.Wait()
	<-f.samplerDone
	rep.StreamFrames = f.frames.Load()
	if wall > 0 {
		rep.StreamRate = float64(rep.StreamFrames) / wall.Seconds()
	}
	sort.Slice(f.lagSamples, func(i, j int) bool { return f.lagSamples[i] < f.lagSamples[j] })
	rep.StreamLagP50 = percentile(f.lagSamples, 0.50)
	rep.StreamLagP90 = percentile(f.lagSamples, 0.90)
	rep.StreamLagP99 = percentile(f.lagSamples, 0.99)
	rep.StreamLagMax = percentile(f.lagSamples, 1.00)
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "", "pfaird base URL (empty: start an in-process server)")
	flag.IntVar(&cfg.tenants, "tenants", 4, "number of tenants")
	flag.IntVar(&cfg.tasks, "tasks", 8, "tasks per tenant")
	flag.IntVar(&cfg.jobs, "jobs", 500, "jobs submitted per task")
	flag.IntVar(&cfg.workers, "workers", 8, "concurrent client workers (above 32, the connection pool's idle bound, some requests redial)")
	flag.IntVar(&cfg.m, "m", 2, "processors per tenant")
	flag.IntVar(&cfg.advanceEvery, "advance-every", 4, "advance virtual time every N submits")
	flag.IntVar(&cfg.batch, "batch", 1, "jobs per submit request; >1 drives POST jobs:batch")
	flag.StringVar(&cfg.policy, "policy", "PD2", "priority policy (PD2, PD, PF, EPDF)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "make the in-process server durable: journal to this directory (measures WAL overhead under load)")
	flag.Int64Var(&cfg.seed, "seed", 1, "deterministic seed: shuffles each worker's pair order")
	flag.IntVar(&cfg.streams, "streams", 0, "concurrent dispatch-stream followers per tenant (fan-out load; 0 disables)")
	flag.Parse()

	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pfairload: %v\n", err)
		os.Exit(1)
	}
	maxTar, err := rat.Parse(rep.MaxTardiness)
	if err == nil && rat.One.Less(maxTar) {
		fmt.Fprintf(os.Stderr, "pfairload: max tardiness %s exceeds one quantum — Theorem 3 violated under load\n", rep.MaxTardiness)
		os.Exit(1)
	}
}

// run executes the load and writes the human report to out.
func run(cfg config, out io.Writer) (report, error) {
	if cfg.tenants < 1 || cfg.tasks < 1 || cfg.jobs < 1 || cfg.m < 1 {
		return report{}, fmt.Errorf("tenants, tasks, jobs and m must all be ≥ 1")
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.advanceEvery < 1 {
		cfg.advanceEvery = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}

	base := cfg.addr
	if base == "" {
		// With -data-dir every command journals before it acks, so the
		// reported throughput includes the WAL's group-commit cost.
		srv, err := server.Open(server.Options{DataDir: cfg.dataDir})
		if err != nil {
			return report{}, err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return report{}, err
		}
		hs := &hop.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "in-process pfaird on %s\n", base)
	}
	// 429 means a tenant's submit ring is full: explicit backpressure, not
	// a failure. The retry policy resends those with capped backoff
	// (honouring Retry-After) instead of hot-looping, OnRetry counts how
	// often it happened — sustained backpressure at a given worker count
	// is a capacity signal — and keyed submits additionally retry on
	// transient failures because the server dedupes them.
	var backpressure, resizeRejected atomic.Int64
	c := client.New(base, nil).
		WithRetry(client.RetryPolicy{
			MaxAttempts: 4,
			OnRetry: func(err error) {
				var ae *client.APIError
				if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
					backpressure.Add(1)
				}
			},
		})
	ctx := context.Background()

	// Setup: tenants and tasks (counted in Requests but not in latency).
	setup := 0
	for ti := 0; ti < cfg.tenants; ti++ {
		id := tenantID(ti)
		rctx, cancel := bounded(ctx)
		_, err := c.CreateTenant(rctx, id, cfg.m, cfg.policy)
		cancel()
		if err != nil {
			return report{}, fmt.Errorf("create %s: %w", id, err)
		}
		setup++
		for k := 0; k < cfg.tasks; k++ {
			rctx, cancel := bounded(ctx)
			_, err := c.RegisterTask(rctx, id, taskID(k), model.W(1, int64(cfg.tasks)))
			cancel()
			if err != nil {
				return report{}, fmt.Errorf("register %s/%s: %w", id, taskID(k), err)
			}
			setup++
		}
	}

	// Fan-out load: the followers ride along for the whole run, consuming
	// the same cached frames the server encodes once per decision.
	var fo *fanout
	if cfg.streams > 0 {
		fo = startStreams(ctx, c, cfg.tenants, cfg.streams)
	}

	// Load phase: workers own disjoint (tenant, task) pairs, so two workers
	// never submit for the same task, while tenants still see concurrent
	// traffic from several workers at once.
	type pair struct{ tenant, task string }
	var pairs []pair
	for ti := 0; ti < cfg.tenants; ti++ {
		for k := 0; k < cfg.tasks; k++ {
			pairs = append(pairs, pair{tenantID(ti), taskID(k)})
		}
	}
	perWorker := make([][]pair, cfg.workers)
	for i, p := range pairs {
		w := i % cfg.workers
		perWorker[w] = append(perWorker[w], p)
	}

	lats := make([][]time.Duration, cfg.workers)
	errs := make([]error, cfg.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		if len(perWorker[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := perWorker[w]
			// Each worker shuffles its own pair list with an RNG derived from
			// (seed, worker), so the interleaving of tenants on the wire is
			// varied but exactly reproducible from the printed seed.
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*0x9e3779b9))
			rng.Shuffle(len(mine), func(i, j int) { mine[i], mine[j] = mine[j], mine[i] })
			lat := make([]time.Duration, 0, cfg.jobs*len(mine)*2)
			// The loop is closed per tenant: K tasks of weight 1/K make one
			// submit worth one slot of tenant time, so a worker advances a
			// tenant by the submits it has made to it since it last did —
			// releases and virtual time keep pace, and the backlog is bounded
			// by how far the workers drift apart, not by the run's length.
			owed := map[string]int{}
			advance := func(tenant string) bool {
				rctx, cancel := bounded(ctx)
				t0 := time.Now()
				_, err := c.AdvanceBy(rctx, tenant, strconv.Itoa(owed[tenant]))
				lat = append(lat, time.Since(t0))
				cancel()
				if err != nil {
					errs[w] = fmt.Errorf("advance %s: %w", tenant, err)
					return false
				}
				owed[tenant] = 0
				return true
			}
			for j := 0; j < cfg.jobs; j += cfg.batch {
				n := cfg.batch
				if j+n > cfg.jobs {
					n = cfg.jobs - j
				}
				for _, p := range mine {
					rctx, cancel := bounded(ctx)
					t0 := time.Now()
					var err error
					if n == 1 {
						// Unique per-worker keys make the submit idempotent,
						// so the retry policy may resend it on transient
						// failures without risking a double release.
						_, err = c.SubmitJobKeyed(rctx, p.tenant, server.SubmitJobRequest{
							Task: p.task, Key: fmt.Sprintf("w%d-%s-%s-%d", w, p.tenant, p.task, j),
						})
					} else {
						// One request, one fsync, n jobs: the group-commit
						// batch path.
						jobs := make([]server.SubmitJobRequest, n)
						for i := range jobs {
							jobs[i] = server.SubmitJobRequest{Task: p.task}
						}
						_, err = c.SubmitJobs(rctx, p.tenant, jobs)
					}
					lat = append(lat, time.Since(t0))
					cancel()
					if err != nil {
						// 409 is capacity saying no — a resize racing the
						// load shrank the tenant or drained its task. That
						// is an expected outcome of elastic capacity, not a
						// broken run: count it apart from 429 backpressure
						// (which the retry policy resends) and move on.
						if client.IsReject(err) {
							resizeRejected.Add(int64(n))
							continue
						}
						errs[w] = fmt.Errorf("submit %s/%s: %w", p.tenant, p.task, err)
						lats[w] = lat
						return
					}
					owed[p.tenant] += n
					if owed[p.tenant] >= cfg.advanceEvery && !advance(p.tenant) {
						lats[w] = lat
						return
					}
				}
			}
			for tenant, n := range owed {
				if n > 0 && !advance(tenant) {
					break
				}
			}
			lats[w] = lat
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return report{}, err
		}
	}

	// Drain every tenant and collect the scheduler-side totals.
	var dispatched int64
	maxTar := rat.Zero
	drains := 0
	targets := make([]int64, cfg.tenants)
	for ti := 0; ti < cfg.tenants; ti++ {
		id := tenantID(ti)
		rctx, cancel := bounded(ctx)
		_, err := c.Drain(rctx, id)
		cancel()
		if err != nil {
			return report{}, fmt.Errorf("drain %s: %w", id, err)
		}
		rctx, cancel = bounded(ctx)
		info, err := c.Tenant(rctx, id)
		cancel()
		if err != nil {
			return report{}, err
		}
		dispatched += info.Dispatches
		targets[ti] = info.Dispatches
		tar, err := rat.Parse(info.MaxTardiness)
		if err != nil {
			return report{}, fmt.Errorf("tenant %s reports unparseable tardiness %q", id, info.MaxTardiness)
		}
		maxTar = rat.Max(maxTar, tar)
		drains += 2
	}
	if fo != nil {
		// Let the followers drain the finite post-load backlog before the
		// frame count is read, so the report reflects full fan-out.
		fo.await(targets, 10*time.Second)
	}
	fanWall := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep := report{
		Requests:       setup + len(all) + drains,
		Wall:           wall,
		Throughput:     float64(len(all)) / wall.Seconds(),
		P50:            percentile(all, 0.50),
		P90:            percentile(all, 0.90),
		P99:            percentile(all, 0.99),
		Max:            percentile(all, 1.00),
		Dispatched:     dispatched,
		MaxTardiness:   maxTar.String(),
		Backpressure:   backpressure.Load(),
		ResizeRejected: resizeRejected.Load(),
	}
	if fo != nil {
		fo.stop(&rep, fanWall)
	}
	if err := addServerStats(ctx, c, &rep); err != nil {
		return report{}, fmt.Errorf("server-side metrics: %w", err)
	}
	fmt.Fprintf(out, "tenants            : %d × %d tasks, %d jobs/task, %d workers\n",
		cfg.tenants, cfg.tasks, cfg.jobs, cfg.workers)
	fmt.Fprintf(out, "seed               : %d (worker pair shuffle)\n", cfg.seed)
	fmt.Fprintf(out, "requests           : %d total (%d timed)\n", rep.Requests, len(all))
	fmt.Fprintf(out, "wall / throughput  : %v / %.0f req/s\n", rep.Wall.Round(time.Millisecond), rep.Throughput)
	fmt.Fprintf(out, "latency p50/p90/p99: %v / %v / %v (max %v)\n", rep.P50, rep.P90, rep.P99, rep.Max)
	if rep.NoServerMetrics {
		fmt.Fprintf(out, "server ack p50/p90/p99: no server-side metrics (%s answers /metrics with 404 — a router?)\n", base)
	} else {
		fmt.Fprintf(out, "server ack p50/p90/p99: %v / %v / %v (%d acks, ±bucket width)\n",
			rep.SrvP50, rep.SrvP90, rep.SrvP99, rep.SrvCount)
	}
	fmt.Fprintf(out, "backpressure       : %d × 429 (submit ring full; retried)\n", rep.Backpressure)
	fmt.Fprintf(out, "resize-rejected    : %d × 409 (capacity withdrawn mid-run; skipped)\n", rep.ResizeRejected)
	fmt.Fprintf(out, "tenant m           : %s\n", formatTenantM(rep.TenantM))
	if cfg.streams > 0 {
		fmt.Fprintf(out, "streams            : %d/tenant, %d frames (%.0f frames/s)\n",
			cfg.streams, rep.StreamFrames, rep.StreamRate)
		fmt.Fprintf(out, "stream lag p50/p90/p99: %d / %d / %d records (max %d)\n",
			rep.StreamLagP50, rep.StreamLagP90, rep.StreamLagP99, rep.StreamLagMax)
	}
	fmt.Fprintf(out, "dispatches         : %d, max tardiness %s (bound: 1)\n", rep.Dispatched, rep.MaxTardiness)
	return rep, nil
}

// formatTenantM renders the per-tenant M gauges as "id=m id=m …",
// sorted by tenant id so runs diff cleanly.
func formatTenantM(m map[string]int) string {
	if len(m) == 0 {
		return "(none)"
	}
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s=%d", id, m[id])
	}
	return strings.Join(parts, " ")
}

// addServerStats scrapes /metrics once and fills the server-side report
// fields: the SrvP* percentiles from the aggregate submit→ack histogram
// (the handler timing itself from inside — the gap to the client
// percentiles is network plus scheduling overhead the server cannot see)
// and TenantM from the pfaird_tenant_m gauges, the measured per-tenant
// capacity after any resizes landed during the run. A target without
// /metrics is not a failed run: the load already went through.
func addServerStats(ctx context.Context, c *client.Client, rep *report) error {
	ctx, cancel := bounded(ctx)
	text, err := c.Metrics(ctx)
	cancel()
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusNotFound {
		rep.NoServerMetrics = true
		return nil
	}
	if err != nil {
		return err
	}
	ex, err := obs.ParseExposition(text)
	if err != nil {
		return err
	}
	if f := ex.Family("pfaird_tenant_m"); f != nil {
		rep.TenantM = make(map[string]int, len(f.Samples))
		for _, s := range f.Samples {
			rep.TenantM[s.Label("tenant")] = int(s.Value)
		}
	}
	snap, err := ex.Histogram("pfaird_submit_ack_seconds", nil)
	if err != nil {
		return err
	}
	rep.SrvCount = snap.Count
	if snap.Count == 0 {
		return nil
	}
	toDur := func(q float64) time.Duration {
		return time.Duration(snap.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
	}
	rep.SrvP50, rep.SrvP90, rep.SrvP99 = toDur(0.50), toDur(0.90), toDur(0.99)
	return nil
}

// percentile returns the q-quantile of sorted samples (q in (0, 1]): the
// client latencies and the stream lags.
func percentile[T any](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func tenantID(i int) string { return fmt.Sprintf("load-%d", i) }
func taskID(k int) string   { return fmt.Sprintf("t%d", k) }
