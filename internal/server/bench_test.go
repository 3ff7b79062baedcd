package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// BenchmarkServerSubmit measures the submit hot path end to end — client
// marshal, HTTP round trip, the hop through the tenant's submit ring to
// its single-writer loop, executive release — with a periodic advance so
// the dispatch log keeps moving and the executive never accumulates an
// unbounded backlog.
func BenchmarkServerSubmit(b *testing.B) {
	srv := server.New()
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "bench", 2, ""); err != nil {
		b.Fatal(err)
	}
	const tasks = 8
	for i := 0; i < tasks; i++ {
		if _, err := c.RegisterTask(ctx, "bench", fmt.Sprintf("w%d", i), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitJob(ctx, "bench", fmt.Sprintf("w%d", i%tasks), ""); err != nil {
			b.Fatal(err)
		}
		if i%tasks == tasks-1 {
			if _, err := c.AdvanceBy(ctx, "bench", "1"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkServerSubmitWAL is BenchmarkServerSubmit against a durable
// server: every submit is journaled (group-commit, fsync once per 64
// records) before it is acknowledged. The delta against the in-memory
// benchmark is the full durability overhead on the hot path.
func BenchmarkServerSubmitWAL(b *testing.B) {
	server.AtProductionSegments(b)
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FsyncEvery:    64,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "bench", 2, ""); err != nil {
		b.Fatal(err)
	}
	const tasks = 8
	for i := 0; i < tasks; i++ {
		if _, err := c.RegisterTask(ctx, "bench", fmt.Sprintf("w%d", i), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SubmitJob(ctx, "bench", fmt.Sprintf("w%d", i%tasks), ""); err != nil {
			b.Fatal(err)
		}
		if i%tasks == tasks-1 {
			if _, err := c.AdvanceBy(ctx, "bench", "1"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// wideRounds builds wide_sched's tenant without HTTP: 2696 tasks on M = 16
// at full utilisation (eight of weight 4/8…7/8, 2688 of 1/256), and its
// rounds' batches, 32 of them, used in turn: 92 jobs each — the eight
// heavy tasks and one phase of 84 light ones, in a seeded order. A round is
// its batch then Advance by 8, which makes 128 decisions.
func wideRounds(tb testing.TB) (*server.Tenant, [][]server.SubmitJobRequest) {
	tn, err := server.NewTenant("wide", 16, "")
	if err != nil {
		tb.Fatal(err)
	}
	return tn, wideTasks(tb, tn)
}

// wideTasks registers wide_sched's tasks with tn, a tenant on M = 16, and
// returns its rounds' batches (wideRounds).
func wideTasks(tb testing.TB, tn *server.Tenant) [][]server.SubmitJobRequest {
	register := func(name string, w model.Weight) {
		if d, _, err := tn.RegisterTask(name, w); err != nil || !d.Admitted {
			tb.Fatalf("register %s: %v %+v", name, err, d)
		}
	}
	const light, phases = 2688, 32
	for i, e := range []int64{4, 4, 5, 5, 6, 6, 7, 7} {
		register(fmt.Sprintf("h%d", i), model.W(e, 8))
	}
	for i := 0; i < light; i++ {
		register(fmt.Sprintf("l%d", i), model.W(1, 256))
	}
	rng := rand.New(rand.NewSource(1))
	rounds := make([][]server.SubmitJobRequest, phases)
	for r := range rounds {
		for i := 0; i < 8; i++ {
			rounds[r] = append(rounds[r], server.SubmitJobRequest{Task: fmt.Sprintf("h%d", i)})
		}
		for i := r; i < light; i += phases {
			rounds[r] = append(rounds[r], server.SubmitJobRequest{Task: fmt.Sprintf("l%d", i)})
		}
		rng.Shuffle(len(rounds[r]), func(x, y int) { rounds[r][x], rounds[r][y] = rounds[r][y], rounds[r][x] })
	}
	return rounds
}

// wideRound runs round i of wideRounds' tenant and returns how long its
// submit and its advance took, and the advance's journal commit (zero in
// memory).
func wideRound(tb testing.TB, tn *server.Tenant, rounds [][]server.SubmitJobRequest, i int) (submit, advance time.Duration, c wal.Commit) {
	t0 := time.Now()
	if _, _, err := tn.SubmitJobs(rounds[i%len(rounds)]); err != nil {
		tb.Fatal(err)
	}
	t1 := time.Now()
	adv, c, err := tn.Advance("", "8")
	if err != nil {
		tb.Fatal(err)
	}
	advance = time.Since(t1)
	if adv.Dispatched != 128 {
		tb.Fatalf("round %d: %d decisions, want 128", i, adv.Dispatched)
	}
	return t1.Sub(t0), advance, c
}

// BenchmarkTenantBatchRound is one round of wide_sched through the Tenant
// API, no HTTP (wideRounds). ns/op is the round; submit-ns/round and
// advance-ns/round split it; rank-cmp/decision and compare-calls/decision
// count the ready heap's comparisons and those of them only prio.Order
// decided. The tenant keeps its whole dispatch log, so keep -benchtime in
// the low thousands of rounds; resident-B/dispatch is what that log holds
// in memory per decision.
func BenchmarkTenantBatchRound(b *testing.B) {
	tn, rounds := wideRounds(b)
	defer tn.Close()
	benchWideRounds(b, tn, rounds, func(wal.Commit) error { return nil })
}

// BenchmarkTenantBatchRoundJournaled is BenchmarkTenantBatchRound on a
// durable server that never compacts (SnapshotEvery 1<<30): the tenant
// journals each batch, advance and digest and, like a handler, waits on
// the advance's commit (FsyncEvery 64) after each round. The tenant seals
// its log into a history file whenever 4096 frames are unsealed, so the
// round's time includes those writes, and resident-B/dispatch — the
// frames since the last seal, spread over every decision — falls as the
// run grows: ≈ 0.9 B at -benchtime 1000x (128 000 decisions), where
// keeping every ≈ 110 B frame would read that.
func BenchmarkTenantBatchRoundJournaled(b *testing.B) {
	defer server.SetHistSegmentMin(4096)()
	srv, err := server.Open(server.Options{
		DataDir: b.TempDir(), FsyncEvery: 64, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if code := doCmd(b, srv.Handler(), cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "wide", M: 16}}); code != http.StatusCreated {
		b.Fatalf("create: %d", code)
	}
	tn := srv.Tenant("wide")
	benchWideRounds(b, tn, wideTasks(b, tn), srv.WaitDurable)
}

// benchWideRounds times b.N rounds of wide_sched on tn, each round's
// advance commit waited on, and reports the split and counts
// BenchmarkTenantBatchRound documents.
func benchWideRounds(b *testing.B, tn *server.Tenant, rounds [][]server.SubmitJobRequest, wait func(wal.Commit) error) {
	var submit, advance time.Duration
	w0 := tn.EngineWork()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, a, c := wideRound(b, tn, rounds, i)
		if err := wait(c); err != nil {
			b.Fatal(err)
		}
		submit += s
		advance += a
	}
	b.StopTimer()
	w := tn.EngineWork()
	decisions := float64(128 * b.N)
	b.ReportMetric(float64(submit.Nanoseconds())/float64(b.N), "submit-ns/round")
	b.ReportMetric(float64(advance.Nanoseconds())/float64(b.N), "advance-ns/round")
	b.ReportMetric(float64(w.RankCmps-w0.RankCmps)/decisions, "rank-cmp/decision")
	b.ReportMetric(float64(w.Compares-w0.Compares)/decisions, "compare-calls/decision")
	b.ReportMetric(float64(tn.ResidentBytes())/float64(tn.Info().Dispatches), "resident-B/dispatch")
}

// TestWideRoundRanksWithoutCompare pins what a wide_sched decision costs
// the ready heap under PD², as counts: every comparison is decided by the
// integer rank, none by prio.Order, and a decision takes about
// eight of them (the pop of one of ≈ 50 ready heads, the push of the next).
func TestWideRoundRanksWithoutCompare(t *testing.T) {
	tn, rounds := wideRounds(t)
	defer tn.Close()
	for i := 0; i < 2*len(rounds); i++ {
		wideRound(t, tn, rounds, i)
	}
	w := tn.EngineWork()
	decisions := int64(128 * 2 * len(rounds))
	if w.Compares != 0 || w.RankCmps < decisions || w.RankCmps > 40*decisions {
		t.Fatalf("%d decisions: %d rank comparisons, %d of them by prio.Order; want 1–40 per decision, none by Order",
			decisions, w.RankCmps, w.Compares)
	}
	t.Logf("%d decisions: %.1f rank comparisons and %.1f heap moves per decision", decisions,
		float64(w.RankCmps)/float64(decisions), float64(w.Moves)/float64(decisions))
}

// TestTenantBatchRoundAllocs pins what a steady-state wide_sched round —
// its 92-job batch and the advance that makes 128 decisions — allocates in
// the tenant: a handful of objects per request (the command, the published
// state, the batch's results, the resolved arrival), none per job or per
// decision. The bound is ≤, not =: counts move with the Go version.
func TestTenantBatchRoundAllocs(t *testing.T) {
	tn, rounds := wideRounds(t)
	defer tn.Close()
	i := 0
	for ; i < 64; i++ {
		wideRound(t, tn, rounds, i)
	}
	allocs := testing.AllocsPerRun(64, func() {
		wideRound(t, tn, rounds, i)
		i++
	})
	if allocs > 20 {
		t.Fatalf("a wide_sched round allocates %.1f times, want ≤ 20", allocs)
	}
	t.Logf("%.1f allocations per round", allocs)
}

// slowFS wraps the real filesystem and adds a fixed latency to every
// file fsync, modeling a commodity disk whose cache flush costs ~2ms.
// The parallel benchmark needs the model: on CI filesystems an fsync is
// a sub-millisecond syscall, which on a small GOMAXPROCS never yields
// the processor, so the whole server serializes behind it and coalesced
// and per-record fsync become indistinguishable. A slept delay parks the
// leader like a real device wait would, letting concurrent submits queue
// behind it — the regime the group-commit pipeline exists for.
type slowFS struct {
	wal.OSFS
	delay time.Duration
}

func (s slowFS) Create(path string) (wal.File, error) {
	f, err := s.OSFS.Create(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, delay: s.delay}, nil
}

type slowFile struct {
	wal.File
	delay time.Duration
}

func (f slowFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// BenchmarkServerSubmitParallel measures durable-submit throughput under
// concurrent clients — the workload the group-commit pipeline exists for.
// The journal writes through slowFS (2ms per fsync, a realistic disk
// flush). Each client drives its own tenant over a shared keep-alive
// transport, so the only cross-client coupling is the WAL: with fsync=1
// every ack needs durability, and the reported fsyncs/op (≪ 1 at high
// concurrency) is the coalescing in action. ns/op is per submitted job
// across all clients, so dividing the clients=1 value by the clients=64
// value gives the scalability factor directly.
func BenchmarkServerSubmitParallel(b *testing.B) {
	server.AtProductionSegments(b)
	for _, fsyncEvery := range []int{1, 32} {
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("fsync=%d/clients=%d", fsyncEvery, clients), func(b *testing.B) {
				benchSubmitParallel(b, fsyncEvery, clients)
			})
		}
	}
}

func benchSubmitParallel(b *testing.B, fsyncEvery, clients int) {
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FS:            slowFS{delay: 2 * time.Millisecond},
		FsyncEvery:    fsyncEvery,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	defer tr.CloseIdleConnections()
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	const tasks = 4
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("t%02d", i)
		if _, err := c.CreateTenant(ctx, id, 1, ""); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < tasks; j++ {
			if _, err := c.RegisterTask(ctx, id, fmt.Sprintf("w%d", j), model.W(1, tasks)); err != nil {
				b.Fatal(err)
			}
		}
	}
	before := srv.WALStats()

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			n := 0
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if _, err := c.SubmitJob(ctx, id, fmt.Sprintf("w%d", n%tasks), ""); err != nil {
					errc <- err
					return
				}
				n++
				if n%(2*tasks) == 0 {
					if _, err := c.AdvanceBy(ctx, id, "1"); err != nil {
						errc <- err
						return
					}
				}
			}
		}(fmt.Sprintf("t%02d", i))
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	after := srv.WALStats()
	b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(after.Appends-before.Appends)/float64(b.N), "appends/op")
}

// BenchmarkServerSubmitContended is the sharpest test of the tenant's one
// command queue: every client submits to the SAME tenant, so all requests
// funnel through one queue, drained by one caller at a time. Under the old
// per-tenant mutex this serialized completely; a drainer instead takes the
// concurrent arrivals as a run, validates each, journals them as one
// record and shares one commit — so fsyncs/op and appends/op fall as
// concurrency rises while every ack still waits for durability. A 429
// (queue full) is backpressure, not failure: the client retries, and the
// retry cost is part of the measured regime. submit-p50-us and
// submit-p99-us are the latencies of the submits alone.
//
// The seal row is the case where a drainer pays for another caller's
// work: every advance decides histSegmentMin (8) events, so the command
// that settles it seals them into a history file, whose fsync costs 2 ms
// here like the journal's, and whoever drains that advance — often a
// submitter — waits for the seal before it answers its own submit.
func BenchmarkServerSubmitContended(b *testing.B) {
	server.AtProductionSegments(b)
	for _, clients := range []int{8, 64} {
		b.Run(fmt.Sprintf("fsync=1/clients=%d", clients), func(b *testing.B) {
			benchSubmitContended(b, clients, false)
		})
	}
	b.Run("fsync=1/clients=8/seal", func(b *testing.B) {
		defer server.SetHistSegmentMin(8)()
		benchSubmitContended(b, 8, true)
	})
}

// sealFS is slowFS with a history file's appends slowed too: a seal
// fsyncs like a journal write does.
type sealFS struct{ slowFS }

func (s sealFS) OpenAppend(path string) (wal.File, error) {
	f, err := s.OSFS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowFile{File: f, delay: s.delay}, nil
}

func benchSubmitContended(b *testing.B, clients int, seal bool) {
	var fs wal.FS = slowFS{delay: 2 * time.Millisecond}
	// By default an advance of one quantum follows every 32 submits; the
	// seal row advances 8 quanta every 8, one seal per advance.
	every, by := int64(32), "1"
	if seal {
		fs, every, by = sealFS{slowFS{delay: 2 * time.Millisecond}}, 8, "8"
	}
	srv, err := server.Open(server.Options{
		DataDir:       b.TempDir(),
		FS:            fs,
		FsyncEvery:    1,
		SnapshotEvery: 1 << 30, // keep compaction out of the measured loop
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := hoptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Close()

	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	defer tr.CloseIdleConnections()
	c := client.New(hs.URL, &http.Client{Transport: tr})
	ctx := context.Background()

	const tasks = 4
	if _, err := c.CreateTenant(ctx, "hot", 1, ""); err != nil {
		b.Fatal(err)
	}
	for j := 0; j < tasks; j++ {
		if _, err := c.RegisterTask(ctx, "hot", fmt.Sprintf("w%d", j), model.W(1, tasks)); err != nil {
			b.Fatal(err)
		}
	}
	before := srv.WALStats()

	retry429 := func(do func() error) error {
		for {
			err := do()
			var ae *client.APIError
			if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
				continue
			}
			return err
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	lat := make([][]time.Duration, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(lat *[]time.Duration) {
			defer wg.Done()
			n := 0
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				start := time.Now()
				err := retry429(func() error {
					_, err := c.SubmitJob(ctx, "hot", fmt.Sprintf("w%d", n%tasks), "")
					return err
				})
				*lat = append(*lat, time.Since(start))
				if err != nil {
					errc <- err
					return
				}
				n++
				if i%every == 0 {
					err := retry429(func() error {
						_, err := c.AdvanceBy(ctx, "hot", by)
						return err
					})
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(&lat[i])
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errc:
		b.Fatal(err)
	default:
	}
	after := srv.WALStats()
	b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(after.Appends-before.Appends)/float64(b.N), "appends/op")
	all := slices.Concat(lat...)
	slices.Sort(all)
	b.ReportMetric(float64(all[len(all)/2].Microseconds()), "submit-p50-us")
	b.ReportMetric(float64(all[len(all)*99/100].Microseconds()), "submit-p99-us")
}

// BenchmarkCompact measures one compaction of a server whose single
// tenant has already made `history` scheduling decisions: each iteration
// is one job, one advance (one new decision) and the compaction those
// three journal records trigger at SnapshotEvery=3, so ns/op is the
// compaction plus two in-process requests. Compaction writes what
// happened since the previous one — the two history rows must stay
// within 1.5× of each other. When every snapshot re-encoded the tenant's
// whole dispatch log they were ≈ 10× apart.
func BenchmarkCompact(b *testing.B) {
	for _, history := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("history=%dk", history/1000), func(b *testing.B) {
			defer server.SetHistSegmentMin(4096)()
			dir := b.TempDir()
			do := func(h http.Handler, method, path string, body any) {
				b.Helper()
				if code := doCmd(b, h, cmd{method, path, body}); code >= 300 {
					b.Fatalf("%s %s: %d", method, path, code)
				}
			}
			// Build the history without compacting, then reopen at the
			// benchmark's cadence.
			srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			const tasks = 16
			var batch server.SubmitJobsRequest
			do(srv.Handler(), "POST", "/v1/tenants", server.CreateTenantRequest{ID: "long", M: 2})
			for i := 0; i < tasks; i++ {
				name := fmt.Sprintf("t%d", i)
				do(srv.Handler(), "POST", "/v1/tenants/long/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: 8})
				batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
			}
			for n := 0; n < history; n += tasks {
				do(srv.Handler(), "POST", "/v1/tenants/long/jobs:batch", batch)
				do(srv.Handler(), "POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: "8"})
			}
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			srv, err = server.Open(server.Options{DataDir: dir, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			h := srv.Handler()
			before := srv.WALStats().Snapshots
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(h, "POST", "/v1/tenants/long/jobs", server.SubmitJobRequest{Task: "t0"})
				do(h, "POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: "8"})
			}
			b.StopTimer()
			if got := srv.WALStats().Snapshots - before; got != uint64(b.N) {
				b.Fatalf("%d iterations compacted %d times", b.N, got)
			}
		})
	}
	// The two shapes of compaction: a short-lived tenant's, which carries
	// its tail of fewer than half a segment's frames inline in the
	// snapshot, and long_tenant's, which seals the ≈ 3 600 frames since
	// the last one into its open history segment — creating a file every
	// second time, appending to it the other. An iteration times the
	// compaction alone; what it compacts is made with the timer stopped.
	b.Run("inline=1.6k", func(b *testing.B) {
		benchCompactShape(b, 1600, 0)
	})
	b.Run("seal=3.6k", func(b *testing.B) {
		benchCompactShape(b, 0, 3648)
	})
}

// benchCompactShape builds a durable tenant of 16 tasks of weight 1/8 on
// two processors that has made resident decisions and nothing sealed, then
// times b.N compactions, each after perIter more decisions (none: after a
// journal record that changes nothing).
func benchCompactShape(b *testing.B, resident, perIter int) {
	defer server.SetHistSegmentMin(4096)()
	dir := b.TempDir()
	srv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1 << 20, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	do := func(method, path string, body any) {
		b.Helper()
		if code := doCmd(b, h, cmd{method, path, body}); code >= 300 {
			b.Fatalf("%s %s: %d", method, path, code)
		}
	}
	const tasks = 16
	do("POST", "/v1/tenants", server.CreateTenantRequest{ID: "long", M: 2})
	for i := 0; i < tasks; i++ {
		do("POST", "/v1/tenants/long/tasks", server.RegisterTaskRequest{Name: fmt.Sprintf("t%d", i), E: 1, P: 8})
	}
	// decide makes n decisions (a multiple of tasks): n/tasks jobs per
	// task in batches the API admits, and one advance over all of them.
	decide := func(n int) {
		var batch server.SubmitJobsRequest
		for j := 0; j < n; j++ {
			batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: fmt.Sprintf("t%d", j%tasks)})
			if len(batch.Jobs) == server.MaxBatchJobs || j == n-1 {
				do("POST", "/v1/tenants/long/jobs:batch", batch)
				batch.Jobs = batch.Jobs[:0]
			}
		}
		do("POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: fmt.Sprint(8 * n / tasks)})
	}
	decide(resident)
	if err := srv.Compact(); err != nil {
		b.Fatal(err)
	}
	sealed := len(histFiles(b, dir))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if perIter == 0 {
			if err := srv.JournalMarker(); err != nil {
				b.Fatal(err)
			}
		} else {
			decide(perIter)
		}
		b.StartTimer()
		if err := srv.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := metricValue(b, h, "pfaird_tenant_history_resident_events", "tenant", "long"); got != int64(resident) {
		b.Fatalf("%d events resident after the last compaction, want %d", got, resident)
	}
	want := 0 // files: a segment closes once it holds 4 096 events
	if perIter > 0 {
		perFile := (4096 + perIter - 1) / perIter
		want = (b.N + perFile - 1) / perFile
	}
	if got := len(histFiles(b, dir)) - sealed; got != want {
		b.Fatalf("%d compactions sealed into %d new history files, want %d", b.N, got, want)
	}
}
