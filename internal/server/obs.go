package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"desyncpfair/internal/obs"
	"desyncpfair/internal/wal"
)

// serverObs bundles the server's observability state: the injected clock
// every measured path reads, the aggregate histograms, the build identity,
// and the trace-ring capacity handed to each new tenant. Per-tenant
// histograms and rings live on the tenants themselves (attached by
// addTenant), so tenant deletion reclaims them and /metrics reads them
// live, like the rest of the tenant series.
type serverObs struct {
	clock    obs.Clock
	build    obs.BuildInfo
	traceCap int

	submitAck   *obs.Histogram // submit→ack, all tenants
	dispatchLag *obs.Histogram // dispatch tardiness in quanta, all tenants

	walAppend     *obs.Histogram // journal frame-write duration
	walFsync      *obs.Histogram // fsync syscall duration
	walLogToFsync *obs.Histogram // append→durable group-commit latency

	// Compaction (Server.compact stores these as it finishes): the pause
	// it held every mutation for, the payload it wrote, and the sealed
	// dispatch history the payload names instead of holding.
	compact       *obs.Histogram
	snapshotBytes atomic.Int64
	histSegments  atomic.Int64
	histBytes     atomic.Int64

	// Read streams cut loose by the egress policy (egress.go): evicted for
	// lagging past the bound, severed on the per-write stall deadline.
	streamEvict  atomic.Int64
	streamSevers atomic.Int64

	// Bodies of a hand-coded type (api_wire.go) that its codec declined and
	// encoding/json took instead, by direction: requests in, replies out.
	wireDecodeFallbacks atomic.Int64
	wireEncodeFallbacks atomic.Int64
}

// defaultTraceCap is each tenant's trace-ring retention (events). At
// ~6 events per command it covers the last ~700 commands — enough to
// diagnose "what just happened" without unbounded memory.
const defaultTraceCap = 4096

func newServerObs() *serverObs {
	return &serverObs{
		clock:         obs.Real{},
		build:         obs.ReadBuildInfo(),
		traceCap:      defaultTraceCap,
		submitAck:     obs.NewHistogram(obs.DefaultLatencyBuckets),
		dispatchLag:   obs.NewHistogram(obs.QuantaBuckets),
		walAppend:     obs.NewHistogram(obs.DefaultLatencyBuckets),
		walFsync:      obs.NewHistogram(obs.DefaultLatencyBuckets),
		walLogToFsync: obs.NewHistogram(obs.DefaultLatencyBuckets),
		compact:       obs.NewHistogram(obs.DefaultLatencyBuckets),
	}
}

// walTimings adapts the serverObs histograms to the wal.Timings sink.
type walTimings struct{ o *serverObs }

func (t walTimings) ObserveAppend(d time.Duration)     { t.o.walAppend.Observe(d.Seconds()) }
func (t walTimings) ObserveFsync(d time.Duration)      { t.o.walFsync.Observe(d.Seconds()) }
func (t walTimings) ObserveLogToFsync(d time.Duration) { t.o.walLogToFsync.Observe(d.Seconds()) }

var _ wal.Timings = walTimings{}

// SetClock injects the clock every measured path reads: request timing,
// submit→ack histograms, trace timestamps (WAL timings are wired at Open
// via Options.Clock). With an obs.Fake clock every exposed metric is an
// exact function of the request sequence — the deterministic test
// harness depends on it. Call before the server takes traffic.
func (s *Server) SetClock(c obs.Clock) {
	if c != nil {
		s.obs.clock = c
	}
}

// SetBuildInfo overrides the pfaird_build_info labels (discovered from
// the runtime by default). Golden-exposition tests pin it so scrapes do
// not vary with the toolchain.
func (s *Server) SetBuildInfo(bi obs.BuildInfo) { s.obs.build = bi }

// SetTraceBuffer sets the per-tenant trace-ring capacity for tenants
// created after the call. Call before the server takes traffic.
func (s *Server) SetTraceBuffer(n int) {
	if n > 0 {
		s.obs.traceCap = n
	}
}

// EnablePprof mounts net/http/pprof's handlers at /debug/pprof/ on the
// server's mux, so one listener serves the API, /metrics, and profiles.
// The handlers bypass the request-metrics middleware: a 30-second CPU
// profile would distort the latency histograms it is being taken to
// explain.
func (s *Server) EnablePprof() { MountPprof(s.mux) }

// MountPprof mounts net/http/pprof's handlers at /debug/pprof/ on mux;
// pfair-router serves them beside its proxy routes through it.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// tenantObsSnap is one tenant's observability snapshot, taken at
// exposition time alongside TenantInfo.
type tenantObsSnap struct {
	id        string
	submitAck obs.Snapshot
	lag       obs.Snapshot
	traceLen  int64
	// Where the dispatch history is: wire bytes and events resident in
	// memory, events sealed into history files.
	residentBytes, residentEvents, sealedEvents int64
}

// appendObsMetrics renders the observability families. The family order
// is fixed — the golden exposition test pins it — and every family is
// written exactly once, aggregate before per-tenant.
func (o *serverObs) appendObsMetrics(b []byte, snaps []tenantObsSnap) []byte {
	b = obs.AppendHeader(b, "pfaird_submit_ack_seconds",
		"Latency from job-submit request arrival to acknowledgment, all tenants.", "histogram")
	b = obs.AppendHistogram(b, "pfaird_submit_ack_seconds", nil, o.submitAck.Snapshot())
	b = obs.AppendHeader(b, "pfaird_dispatch_lag_quanta",
		"Dispatch tardiness in quanta, all tenants (Theorem 3 bounds it by 1).", "histogram")
	b = obs.AppendHistogram(b, "pfaird_dispatch_lag_quanta", nil, o.dispatchLag.Snapshot())
	b = obs.AppendHeader(b, "pfaird_tenant_submit_ack_seconds",
		"Latency from job-submit request arrival to acknowledgment, per tenant.", "histogram")
	for _, sn := range snaps {
		b = obs.AppendHistogram(b, "pfaird_tenant_submit_ack_seconds",
			[]obs.Label{{Name: "tenant", Value: sn.id}}, sn.submitAck)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_dispatch_lag_quanta",
		"Dispatch tardiness in quanta, per tenant.", "histogram")
	for _, sn := range snaps {
		b = obs.AppendHistogram(b, "pfaird_tenant_dispatch_lag_quanta",
			[]obs.Label{{Name: "tenant", Value: sn.id}}, sn.lag)
	}
	b = obs.AppendHeader(b, "pfaird_trace_events_total",
		"Trace events recorded, per tenant (ring retention is bounded; this counts all ever recorded).", "counter")
	for _, sn := range snaps {
		b = obs.AppendSample(b, "pfaird_trace_events_total",
			[]obs.Label{{Name: "tenant", Value: sn.id}}, strconv.FormatInt(sn.traceLen, 10))
	}
	b = obs.AppendHeader(b, "pfaird_stream_evictions_total",
		"Read streams evicted with an in-band 410 for lagging past the stream policy's bound.", "counter")
	b = appendBare(b, "pfaird_stream_evictions_total", o.streamEvict.Load())
	b = obs.AppendHeader(b, "pfaird_stream_stall_severs_total",
		"Read streams severed because a write to a wedged reader outlasted the stall deadline.", "counter")
	b = appendBare(b, "pfaird_stream_stall_severs_total", o.streamSevers.Load())
	b = obs.AppendHeader(b, "pfaird_wire_fallbacks_total",
		"Request and reply bodies of a hand-coded type that encoding/json took over: a string outside printable ASCII or needing an escape, a key in another spelling, a number in another form. A registration's reply always counts (its reason text is not ASCII).", "counter")
	b = appendLabeled1(b, "pfaird_wire_fallbacks_total", "dir", "decode", o.wireDecodeFallbacks.Load())
	b = appendLabeled1(b, "pfaird_wire_fallbacks_total", "dir", "encode", o.wireEncodeFallbacks.Load())
	b = obs.AppendHeader(b, "pfaird_tenant_history_resident_bytes",
		"Wire bytes of dispatch history held in memory, per tenant.", "gauge")
	for _, sn := range snaps {
		b = appendLabeled1(b, "pfaird_tenant_history_resident_bytes", "tenant", sn.id, sn.residentBytes)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_history_resident_events",
		"Dispatch events held in memory, per tenant (the rest are sealed).", "gauge")
	for _, sn := range snaps {
		b = appendLabeled1(b, "pfaird_tenant_history_resident_events", "tenant", sn.id, sn.residentEvents)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_history_sealed_events",
		"Dispatch events sealed into history files and dropped from memory, per tenant.", "gauge")
	for _, sn := range snaps {
		b = appendLabeled1(b, "pfaird_tenant_history_sealed_events", "tenant", sn.id, sn.sealedEvents)
	}
	return b
}

// appendBuildInfo renders the info-metric identifying the binary.
func (o *serverObs) appendBuildInfo(b []byte) []byte {
	b = obs.AppendHeader(b, "pfaird_build_info",
		"Build identity of the serving binary; the value is always 1.", "gauge")
	return obs.AppendSample(b, "pfaird_build_info", []obs.Label{
		{Name: "version", Value: o.build.Version},
		{Name: "revision", Value: o.build.Revision},
		{Name: "go", Value: o.build.GoVersion},
	}, "1")
}

// appendWALTimingMetrics renders the journal latency histograms (durable
// servers only; the in-memory server's exposition is unchanged).
func (o *serverObs) appendWALTimingMetrics(b []byte) []byte {
	b = obs.AppendHeader(b, "pfaird_wal_append_seconds",
		"Journal frame-write duration.", "histogram")
	b = obs.AppendHistogram(b, "pfaird_wal_append_seconds", nil, o.walAppend.Snapshot())
	b = obs.AppendHeader(b, "pfaird_wal_fsync_seconds",
		"Journal fsync syscall duration.", "histogram")
	b = obs.AppendHistogram(b, "pfaird_wal_fsync_seconds", nil, o.walFsync.Snapshot())
	b = obs.AppendHeader(b, "pfaird_wal_log_to_fsync_seconds",
		"Per-record latency from journal append to the group-commit fsync that made it durable.", "histogram")
	return obs.AppendHistogram(b, "pfaird_wal_log_to_fsync_seconds", nil, o.walLogToFsync.Snapshot())
}

// appendCompactionMetrics renders what Server.compact last stored (durable
// servers only).
func (o *serverObs) appendCompactionMetrics(b []byte) []byte {
	b = obs.AppendHeader(b, "pfaird_compact_seconds",
		"Duration of one compaction: the pause every mutation waits out while state is imaged and the snapshot installed.", "histogram")
	b = obs.AppendHistogram(b, "pfaird_compact_seconds", nil, o.compact.Snapshot())
	b = obs.AppendHeader(b, "pfaird_snapshot_bytes",
		"Payload bytes of the last snapshot written.", "gauge")
	b = appendBare(b, "pfaird_snapshot_bytes", o.snapshotBytes.Load())
	b = obs.AppendHeader(b, "pfaird_history_segments",
		"Sealed dispatch-history files the last snapshot refers to, all tenants.", "gauge")
	b = appendBare(b, "pfaird_history_segments", o.histSegments.Load())
	b = obs.AppendHeader(b, "pfaird_history_bytes",
		"Bytes of sealed dispatch history the last snapshot refers to, all tenants.", "gauge")
	return appendBare(b, "pfaird_history_bytes", o.histBytes.Load())
}

// handleTrace streams the tenant's trace ring as NDJSON, one obs.Event
// per line: first the retained backlog from ?from (default 0), then live
// events as commands execute. Ring retention is bounded, so a follower
// that asks for evicted history simply resumes at the oldest retained
// event — the Seq gap tells it how much it missed. ?follow=false stops
// at the current end instead of following. The stream ends with the
// client, the tenant, or the server, exactly like the dispatch stream.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t := s.routeTenant(w, r)
	if t == nil {
		return
	}
	var from int64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("server: bad from %q", v))
			return
		}
		from = n
	}
	follow := r.URL.Query().Get("follow") != "false"

	ring := t.traceRing()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fw := s.newFrameWriter(w)
	if fw.flush() != nil {
		return
	}

	sub := ring.Subscribe()
	defer ring.Unsubscribe(sub)

	// Trace frames come from the ring's memoized wire cache: each retained
	// event is encoded at most once no matter how many followers stream it.
	// No lag eviction here — the ring already bounds retention, so a slow
	// follower skips ahead past dropped history instead of pinning memory.
	pos := from
	for {
		frames, dropped := ring.FramesSince(pos)
		pos += dropped
		wrote := len(frames) > 0
		pos += int64(len(frames))
		for len(frames) > 0 {
			n := min(len(frames), maxStreamBatch)
			if err := fw.writeFrames(frames[:n]); err != nil {
				return // client went away
			}
			frames = frames[n:]
		}
		if wrote && fw.flush() != nil {
			return
		}
		if !follow {
			return
		}
		select {
		case <-sub:
		case <-r.Context().Done():
			return
		case <-t.Closed():
			follow = false // flush whatever landed, then stop
		case <-s.shutdown:
			follow = false
		}
	}
}
