package server

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram, powers of four from 16µs to ~67ms plus +Inf.
var latencyBuckets = []float64{
	16e-6, 64e-6, 256e-6, 1024e-6, 4096e-6, 16384e-6, 65536e-6,
}

// metrics aggregates per-route request counters without any lock on the
// request path. The route map is built once at registration (route()) and
// read-only afterwards, so observe() is a map lookup plus atomic adds —
// a /metrics scrape never contends with a request, and requests never
// contend with each other on a counter mutex. Tenant-level series
// (dispatch counts, tardiness, rejections) are not stored here — they are
// read live from the tenants at exposition time, so the two can never
// drift apart.
type metrics struct {
	routes map[string]*routeStats
}

// routeStats is one route's counters, updated and read with atomics only.
// Writers order their updates so a concurrent reader always sees an
// internally consistent histogram (see observe / snapshot).
type routeStats struct {
	count   atomic.Int64
	errors  atomic.Int64  // 4xx + 5xx responses
	sum     atomic.Uint64 // float64 bits, CAS-updated
	buckets [7]atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{routes: map[string]*routeStats{}}
}

// register pre-creates a route's counters. Called only from route() while
// the server is being built, before any request can run; after that the
// map is never written again, which is what makes lock-free observe safe.
func (m *metrics) register(route string) {
	m.routes[route] = &routeStats{}
}

// observe records one request against its route pattern. Update order is
// the consistency protocol: count first, then buckets from the widest
// down. A reader going the other way (buckets ascending, count last; see
// snapshot) therefore sees, for every bucket, at most as many increments
// as the next wider one and never more than count — the histogram it
// reads is always cumulative and `bucket ≤ count` holds even mid-update.
func (m *metrics) observe(route string, d time.Duration, status int) {
	rs := m.routes[route]
	if rs == nil {
		// Unregistered patterns cannot happen via route(); drop rather
		// than grow the map (which is lock-free only because it's frozen).
		return
	}
	secs := d.Seconds()
	rs.count.Add(1)
	if status >= 400 {
		rs.errors.Add(1)
	}
	for old := rs.sum.Load(); ; old = rs.sum.Load() {
		if rs.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+secs)) {
			break
		}
	}
	for i := len(latencyBuckets) - 1; i >= 0; i-- {
		if secs <= latencyBuckets[i] {
			rs.buckets[i].Add(1)
		}
	}
}

// routeSnap is one route's counters as read at exposition time.
type routeSnap struct {
	count   int64
	errors  int64
	sum     float64
	buckets [7]int64
}

// snapshot reads rs in the order that pairs with observe's write order:
// buckets ascending first, count last. Every value is monotone, so the
// result is a valid cumulative histogram with bucket[i] ≤ bucket[j≥i] ≤
// count even while writers are mid-flight.
func (rs *routeStats) snapshot() routeSnap {
	var s routeSnap
	for i := range rs.buckets {
		s.buckets[i] = rs.buckets[i].Load()
	}
	s.errors = rs.errors.Load()
	s.sum = math.Float64frombits(rs.sum.Load())
	s.count = rs.count.Load()
	return s
}

// latencyBucketLe are the pre-rendered le label values of latencyBuckets
// (what %g produced before the exposition moved off fmt).
var latencyBucketLe = func() []string {
	out := make([]string, len(latencyBuckets))
	for i, ub := range latencyBuckets {
		out[i] = strconv.FormatFloat(ub, 'g', -1, 64)
	}
	return out
}()

// appendLabeled1 appends one `name{label="value"} v\n` sample line.
func appendLabeled1(b []byte, name, label, value string, v int64) []byte {
	b = append(b, name...)
	b = append(b, '{')
	b = append(b, label...)
	b = append(b, '=')
	b = strconv.AppendQuote(b, value)
	b = append(b, "} "...)
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendBare appends one unlabeled `name v\n` sample line.
func appendBare(b []byte, name string, v int64) []byte {
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, v, 10)
	return append(b, '\n')
}

// appendMetrics renders the text exposition: request counters per route,
// then the live per-tenant series pulled from `infos`. Routes that have
// never been hit are filtered, so the page's route set matches what has
// actually served traffic. Everything appends into the caller's (pooled)
// buffer through strconv — no fmt verbs, no per-sample allocation.
func (m *metrics) appendMetrics(b []byte, infos []TenantInfo) []byte {
	routes := make([]string, 0, len(m.routes))
	snaps := make(map[string]routeSnap, len(m.routes))
	for r, rs := range m.routes {
		s := rs.snapshot()
		if s.count == 0 {
			continue
		}
		routes = append(routes, r)
		snaps[r] = s
	}
	sort.Strings(routes)
	b = append(b, "# HELP pfaird_requests_total HTTP requests served, by route.\n"...)
	b = append(b, "# TYPE pfaird_requests_total counter\n"...)
	for _, r := range routes {
		b = appendLabeled1(b, "pfaird_requests_total", "route", r, snaps[r].count)
	}
	b = append(b, "# HELP pfaird_request_errors_total HTTP 4xx/5xx responses, by route.\n"...)
	b = append(b, "# TYPE pfaird_request_errors_total counter\n"...)
	for _, r := range routes {
		b = appendLabeled1(b, "pfaird_request_errors_total", "route", r, snaps[r].errors)
	}
	b = append(b, "# HELP pfaird_request_duration_seconds Request latency histogram, by route.\n"...)
	b = append(b, "# TYPE pfaird_request_duration_seconds histogram\n"...)
	for _, r := range routes {
		rs := snaps[r]
		for i := range latencyBuckets {
			b = append(b, "pfaird_request_duration_seconds_bucket{route="...)
			b = strconv.AppendQuote(b, r)
			b = append(b, ",le="...)
			b = strconv.AppendQuote(b, latencyBucketLe[i])
			b = append(b, "} "...)
			b = strconv.AppendInt(b, rs.buckets[i], 10)
			b = append(b, '\n')
		}
		b = append(b, "pfaird_request_duration_seconds_bucket{route="...)
		b = strconv.AppendQuote(b, r)
		b = append(b, ",le=\"+Inf\"} "...)
		b = strconv.AppendInt(b, rs.count, 10)
		b = append(b, '\n')
		b = append(b, "pfaird_request_duration_seconds_sum{route="...)
		b = strconv.AppendQuote(b, r)
		b = append(b, "} "...)
		b = strconv.AppendFloat(b, rs.sum, 'g', -1, 64)
		b = append(b, '\n')
		b = appendLabeled1(b, "pfaird_request_duration_seconds_count", "route", r, rs.count)
	}

	b = append(b, "# HELP pfaird_tenants Current tenant count.\n"...)
	b = append(b, "# TYPE pfaird_tenants gauge\n"...)
	b = appendBare(b, "pfaird_tenants", int64(len(infos)))
	b = append(b, "# HELP pfaird_tenant_dispatches_total Scheduling decisions made, per tenant.\n"...)
	b = append(b, "# TYPE pfaird_tenant_dispatches_total counter\n"...)
	for _, ti := range infos {
		b = appendLabeled1(b, "pfaird_tenant_dispatches_total", "tenant", ti.ID, ti.Dispatches)
	}
	b = append(b, "# HELP pfaird_tenant_max_tardiness Worst observed tardiness in quanta (Theorem 3 bounds it by 1).\n"...)
	b = append(b, "# TYPE pfaird_tenant_max_tardiness gauge\n"...)
	for _, ti := range infos {
		b = append(b, "pfaird_tenant_max_tardiness{tenant="...)
		b = strconv.AppendQuote(b, ti.ID)
		b = append(b, "} "...)
		b = append(b, ratToFloat(ti.MaxTardiness)...)
		b = append(b, '\n')
	}
	b = append(b, "# HELP pfaird_tenant_admission_rejections_total Register requests rejected by admission control, per tenant.\n"...)
	b = append(b, "# TYPE pfaird_tenant_admission_rejections_total counter\n"...)
	for _, ti := range infos {
		b = appendLabeled1(b, "pfaird_tenant_admission_rejections_total", "tenant", ti.ID, ti.Rejections)
	}
	b = append(b, "# HELP pfaird_tenant_pending_subtasks Released but undispatched subtasks, per tenant.\n"...)
	b = append(b, "# TYPE pfaird_tenant_pending_subtasks gauge\n"...)
	for _, ti := range infos {
		b = appendLabeled1(b, "pfaird_tenant_pending_subtasks", "tenant", ti.ID, int64(ti.Pending))
	}
	b = append(b, "# HELP pfaird_tenant_m Current processor count, per tenant (changes on resize).\n"...)
	b = append(b, "# TYPE pfaird_tenant_m gauge\n"...)
	for _, ti := range infos {
		b = appendLabeled1(b, "pfaird_tenant_m", "tenant", ti.ID, int64(ti.M))
	}
	b = append(b, "# HELP pfaird_tenant_pending_m Queued drain-mode shrink target, per tenant (0 = none).\n"...)
	b = append(b, "# TYPE pfaird_tenant_pending_m gauge\n"...)
	for _, ti := range infos {
		b = appendLabeled1(b, "pfaird_tenant_pending_m", "tenant", ti.ID, int64(ti.PendingM))
	}
	return b
}

// appendUBare appends one unlabeled `name v\n` line for unsigned values.
func appendUBare(b []byte, name string, v uint64) []byte {
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\n')
}

// appendWALMetrics appends the journal counters to the exposition. A
// non-durable server emits nothing, so PR 2's scrape output is unchanged
// for it.
func (s *Server) appendWALMetrics(b []byte) []byte {
	if s.wal == nil {
		return b
	}
	st := s.wal.Stats()
	b = append(b, "# HELP pfaird_wal_appends_total Journal records appended.\n"...)
	b = append(b, "# TYPE pfaird_wal_appends_total counter\n"...)
	b = appendUBare(b, "pfaird_wal_appends_total", st.Appends)
	b = append(b, "# HELP pfaird_wal_fsyncs_total Group-commit fsyncs issued.\n"...)
	b = append(b, "# TYPE pfaird_wal_fsyncs_total counter\n"...)
	b = appendUBare(b, "pfaird_wal_fsyncs_total", st.Fsyncs)
	b = append(b, "# HELP pfaird_wal_append_errors_total Journal appends refused or failed.\n"...)
	b = append(b, "# TYPE pfaird_wal_append_errors_total counter\n"...)
	b = appendUBare(b, "pfaird_wal_append_errors_total", st.AppendErrors)
	b = append(b, "# HELP pfaird_wal_snapshots_total Snapshots written (compactions).\n"...)
	b = append(b, "# TYPE pfaird_wal_snapshots_total counter\n"...)
	b = appendUBare(b, "pfaird_wal_snapshots_total", st.Snapshots)
	b = append(b, "# HELP pfaird_wal_unsynced_records Records written to the journal but not yet covered by an fsync.\n"...)
	b = append(b, "# TYPE pfaird_wal_unsynced_records gauge\n"...)
	b = appendUBare(b, "pfaird_wal_unsynced_records", st.Unsynced)
	b = append(b, "# HELP pfaird_wal_wedged Whether the journal has failed and refuses writes.\n"...)
	b = append(b, "# TYPE pfaird_wal_wedged gauge\n"...)
	b = appendBare(b, "pfaird_wal_wedged", int64(boolGauge(st.Wedged)))
	b = append(b, "# HELP pfaird_commands_total Commands acknowledged (journaled and applied) since the data dir was created.\n"...)
	b = append(b, "# TYPE pfaird_commands_total counter\n"...)
	b = appendUBare(b, "pfaird_commands_total", s.cmdSeq.Load())
	if rec := s.recovery; rec != nil {
		b = append(b, "# HELP pfaird_recovery_records_replayed Journal records replayed at the last boot.\n"...)
		b = append(b, "# TYPE pfaird_recovery_records_replayed gauge\n"...)
		b = appendBare(b, "pfaird_recovery_records_replayed", int64(rec.RecordsReplayed))
		b = append(b, "# HELP pfaird_recovery_truncated_bytes Bytes discarded at torn segment tails at the last boot.\n"...)
		b = append(b, "# TYPE pfaird_recovery_truncated_bytes gauge\n"...)
		b = appendBare(b, "pfaird_recovery_truncated_bytes", rec.TruncatedBytes)
		b = append(b, "# HELP pfaird_recovery_replay_errors Commands that failed to re-apply at the last boot (0 on a healthy recovery).\n"...)
		b = append(b, "# TYPE pfaird_recovery_replay_errors gauge\n"...)
		b = appendBare(b, "pfaird_recovery_replay_errors", int64(rec.ReplayErrors))
		b = append(b, "# HELP pfaird_recovery_dispatch_mismatches Journaled dispatch records that contradicted replay at the last boot (0 on a healthy recovery).\n"...)
		b = append(b, "# TYPE pfaird_recovery_dispatch_mismatches gauge\n"...)
		b = appendBare(b, "pfaird_recovery_dispatch_mismatches", int64(rec.DispatchMismatches))
	}
	b = append(b, "# HELP pfaird_replication_is_leader Whether this node accepts writes (1) or replicates from a leader (0).\n"...)
	b = append(b, "# TYPE pfaird_replication_is_leader gauge\n"...)
	b = appendBare(b, "pfaird_replication_is_leader", int64(boolGauge(s.Role() == RoleLeader)))
	b = append(b, "# HELP pfaird_replication_term Leadership term of the journal.\n"...)
	b = append(b, "# TYPE pfaird_replication_term gauge\n"...)
	b = appendUBare(b, "pfaird_replication_term", s.wal.Term())
	b = append(b, "# HELP pfaird_replication_applied_lsn Highest journal LSN reflected in served state.\n"...)
	b = append(b, "# TYPE pfaird_replication_applied_lsn gauge\n"...)
	b = appendUBare(b, "pfaird_replication_applied_lsn", s.AppliedLSN())
	b = append(b, "# HELP pfaird_replication_lag_lsn LSNs this follower trails its leader's durable tip (0 on a leader, -1 before first measurement).\n"...)
	b = append(b, "# TYPE pfaird_replication_lag_lsn gauge\n"...)
	b = appendBare(b, "pfaird_replication_lag_lsn", s.replicationLag())
	b = append(b, "# HELP pfaird_replication_bootstrap_seconds How long this node took, opened as a follower, to catch up with its leader's durable tip (-1 while it is bootstrapping, 0 on a node that never followed).\n"...)
	b = append(b, "# TYPE pfaird_replication_bootstrap_seconds gauge\n"...)
	b = append(b, "pfaird_replication_bootstrap_seconds "...)
	b = strconv.AppendFloat(b, bootstrapSeconds(s.bootstrapNs.Load()), 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, "# HELP pfaird_replication_log_streams Followers attached to this node's /v1/replication/log right now.\n"...)
	b = append(b, "# TYPE pfaird_replication_log_streams gauge\n"...)
	b = appendBare(b, "pfaird_replication_log_streams", s.replLogStreams.Load())
	b = append(b, "# HELP pfaird_replication_apply_errors_total Replicated commands that failed to re-apply on this follower (0 on a healthy one).\n"...)
	b = append(b, "# TYPE pfaird_replication_apply_errors_total counter\n"...)
	b = appendBare(b, "pfaird_replication_apply_errors_total", s.replApplyErrors.Load())
	b = append(b, "# HELP pfaird_replication_dispatch_mismatches_total Replicated dispatch records that contradicted the decisions this follower regenerated (0 on a healthy one).\n"...)
	b = append(b, "# TYPE pfaird_replication_dispatch_mismatches_total counter\n"...)
	b = appendBare(b, "pfaird_replication_dispatch_mismatches_total", s.replMismatches.Load())
	b = s.obs.appendWALTimingMetrics(b)
	return s.obs.appendCompactionMetrics(b)
}

// replicationLag is the exported lag gauge: a leader is definitionally
// current; a follower reports what its tailer last measured.
func (s *Server) replicationLag() int64 {
	if s.Role() == RoleLeader {
		return 0
	}
	return s.replLagLSN.Load()
}

// bootstrapSeconds renders Server.bootstrapNs: its -1 and 0 stand for
// themselves, anything else is a duration.
func bootstrapSeconds(ns int64) float64 {
	if ns <= 0 {
		return float64(ns)
	}
	return time.Duration(ns).Seconds()
}

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

// ratToFloat renders a rat string ("3/2") as a float for the exposition
// format, which has no exact rationals. Metrics are the one place the
// repo tolerates the loss; the JSON API never does this.
func ratToFloat(s string) string {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, errN := strconv.ParseFloat(s[:i], 64)
		d, errD := strconv.ParseFloat(s[i+1:], 64)
		if errN == nil && errD == nil && d != 0 {
			return strconv.FormatFloat(n/d, 'g', -1, 64)
		}
	}
	return s
}
