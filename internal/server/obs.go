package server

import (
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"desyncpfair/internal/obs"
	"desyncpfair/internal/wal"
)

// serverObs bundles the server's observability state: the injected clock
// every measured path reads, the per-route request counters, the aggregate
// histograms, the build identity, and the trace-ring capacity handed to
// each new tenant. Per-tenant histograms and rings live on the tenants
// themselves (attached by addTenant), so tenant deletion reclaims them and
// /metrics reads them live, like the rest of the tenant series.
type serverObs struct {
	clock    obs.Clock
	build    obs.BuildInfo
	traceCap int

	routes map[string]*routeStats // request counters; frozen once New returns (metrics.go)

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
		routes:        map[string]*routeStats{},
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

// tenantObsSnap is what /metrics reads of one tenant, taken at exposition
// time: the state it had published (immutable, so every series of the
// tenant comes from one instant of it) and its observability series.
type tenantObsSnap struct {
	id        string
	state     *tenantSnap
	submitAck obs.Snapshot
	lag       obs.Snapshot
	traceLen  int64
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
		b = obs.AppendHistogram(b, "pfaird_tenant_submit_ack_seconds", tenantLabel(sn.id), sn.submitAck)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_dispatch_lag_quanta",
		"Dispatch tardiness in quanta, per tenant.", "histogram")
	for _, sn := range snaps {
		b = obs.AppendHistogram(b, "pfaird_tenant_dispatch_lag_quanta", tenantLabel(sn.id), sn.lag)
	}
	b = obs.AppendHeader(b, "pfaird_trace_events_total",
		"Trace events recorded, per tenant (ring retention is bounded; this counts all ever recorded).", "counter")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_trace_events_total", tenantLabel(sn.id), sn.traceLen)
	}
	b = obs.AppendHeader(b, "pfaird_stream_evictions_total",
		"Read streams evicted with an in-band 410 for lagging past the stream policy's bound.", "counter")
	b = obs.AppendInt(b, "pfaird_stream_evictions_total", nil, o.streamEvict.Load())
	b = obs.AppendHeader(b, "pfaird_stream_stall_severs_total",
		"Read streams severed because a write to a wedged reader outlasted the stall deadline.", "counter")
	b = obs.AppendInt(b, "pfaird_stream_stall_severs_total", nil, o.streamSevers.Load())
	b = obs.AppendHeader(b, "pfaird_wire_fallbacks_total",
		"Request and reply bodies of a hand-coded type that encoding/json took over: a string outside printable ASCII or needing an escape, a key in another spelling, a number in another form. A registration's reply always counts (its reason text is not ASCII).", "counter")
	b = obs.AppendInt(b, "pfaird_wire_fallbacks_total", []obs.Label{{Name: "dir", Value: "decode"}}, o.wireDecodeFallbacks.Load())
	b = obs.AppendInt(b, "pfaird_wire_fallbacks_total", []obs.Label{{Name: "dir", Value: "encode"}}, o.wireEncodeFallbacks.Load())
	b = obs.AppendHeader(b, "pfaird_tenant_history_resident_bytes",
		"Wire bytes of dispatch history held in memory, per tenant.", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_history_resident_bytes", tenantLabel(sn.id), sn.state.log.resident)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_history_resident_events",
		"Dispatch events held in memory, per tenant (the rest are sealed).", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_history_resident_events", tenantLabel(sn.id), sn.state.log.len()-sn.state.log.floor())
	}
	b = obs.AppendHeader(b, "pfaird_tenant_history_sealed_events",
		"Dispatch events sealed into history files and dropped from memory, per tenant.", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_history_sealed_events", tenantLabel(sn.id), sn.state.log.floor())
	}
	return b
}

// appendBuildInfo renders the info-metric identifying the binary.
func (o *serverObs) appendBuildInfo(b []byte) []byte {
	b = obs.AppendHeader(b, "pfaird_build_info",
		"Build identity of the serving binary; the value is always 1.", "gauge")
	return obs.AppendInt(b, "pfaird_build_info", []obs.Label{
		{Name: "version", Value: o.build.Version},
		{Name: "revision", Value: o.build.Revision},
		{Name: "go", Value: o.build.GoVersion},
	}, 1)
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
	b = obs.AppendInt(b, "pfaird_snapshot_bytes", nil, o.snapshotBytes.Load())
	b = obs.AppendHeader(b, "pfaird_history_segments",
		"Sealed dispatch-history files the last snapshot refers to, all tenants.", "gauge")
	b = obs.AppendInt(b, "pfaird_history_segments", nil, o.histSegments.Load())
	b = obs.AppendHeader(b, "pfaird_history_bytes",
		"Bytes of sealed dispatch history the last snapshot refers to, all tenants.", "gauge")
	return obs.AppendInt(b, "pfaird_history_bytes", nil, o.histBytes.Load())
}
