package server

import (
	"sort"
	"sync/atomic"
	"time"

	"desyncpfair/internal/obs"
)

// routeStats is one route's request counters: its latency histogram, whose
// count is the requests served, and the 4xx/5xx among them.
type routeStats struct {
	dur    *obs.Histogram
	errors atomic.Int64
}

// register pre-creates a route's counters. Called only from route() while
// the server is being built, before any request can run; after that the
// map is never written again, so observeRequest reads it without a lock —
// a /metrics scrape never contends with a request, and requests never
// contend with each other.
func (o *serverObs) register(route string) {
	o.routes[route] = &routeStats{dur: obs.NewHistogram(obs.DefaultLatencyBuckets)}
}

// observeRequest records one request against its route pattern: the
// duration (and with it the count) before the error, the order
// appendRequestMetrics reads them back in, so errors never exceed requests.
func (o *serverObs) observeRequest(route string, d time.Duration, status int) {
	rs := o.routes[route]
	if rs == nil {
		// Unregistered patterns cannot happen via route(); drop rather
		// than grow the map (which is lock-free only because it's frozen).
		return
	}
	rs.dur.Observe(d.Seconds())
	if status >= 400 {
		rs.errors.Add(1)
	}
}

// appendRequestMetrics renders the request counters per route. Routes that
// have never been hit are filtered, so the page's route set matches what
// has actually served traffic.
func (o *serverObs) appendRequestMetrics(b []byte) []byte {
	type routeSnap struct {
		route  string
		errors int64
		dur    obs.Snapshot
	}
	snaps := make([]routeSnap, 0, len(o.routes))
	for r, rs := range o.routes {
		errs := rs.errors.Load() // before the count that observeRequest wrote before it
		if dur := rs.dur.Snapshot(); dur.Count > 0 {
			snaps = append(snaps, routeSnap{r, errs, dur})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].route < snaps[j].route })
	b = obs.AppendHeader(b, "pfaird_requests_total", "HTTP requests served, by route.", "counter")
	for _, sn := range snaps {
		b = obs.AppendUint(b, "pfaird_requests_total", routeLabel(sn.route), sn.dur.Count)
	}
	b = obs.AppendHeader(b, "pfaird_request_errors_total", "HTTP 4xx/5xx responses, by route.", "counter")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_request_errors_total", routeLabel(sn.route), sn.errors)
	}
	b = obs.AppendHeader(b, "pfaird_request_duration_seconds", "Request latency histogram, by route.", "histogram")
	for _, sn := range snaps {
		b = obs.AppendHistogram(b, "pfaird_request_duration_seconds", routeLabel(sn.route), sn.dur)
	}
	return b
}

// appendTenantMetrics renders the per-tenant state series. They are not
// stored beside the request counters — each is read from the state its
// tenant had published at exposition time, so the two can never drift apart.
func appendTenantMetrics(b []byte, snaps []tenantObsSnap) []byte {
	b = obs.AppendHeader(b, "pfaird_tenants", "Current tenant count.", "gauge")
	b = obs.AppendInt(b, "pfaird_tenants", nil, int64(len(snaps)))
	b = obs.AppendHeader(b, "pfaird_tenant_dispatches_total",
		"Scheduling decisions made, per tenant.", "counter")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_dispatches_total", tenantLabel(sn.id), sn.state.log.len())
	}
	b = obs.AppendHeader(b, "pfaird_tenant_max_tardiness",
		"Worst observed tardiness in quanta (Theorem 3 bounds it by 1).", "gauge")
	for _, sn := range snaps {
		b = obs.AppendFloat(b, "pfaird_tenant_max_tardiness", tenantLabel(sn.id), sn.state.maxTar.Float64())
	}
	b = obs.AppendHeader(b, "pfaird_tenant_admission_rejections_total",
		"Register requests rejected by admission control, per tenant.", "counter")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_admission_rejections_total", tenantLabel(sn.id), sn.state.reject)
	}
	b = obs.AppendHeader(b, "pfaird_tenant_pending_subtasks",
		"Released but undispatched subtasks, per tenant.", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_pending_subtasks", tenantLabel(sn.id), int64(sn.state.pending))
	}
	b = obs.AppendHeader(b, "pfaird_tenant_m",
		"Current processor count, per tenant (changes on resize).", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_m", tenantLabel(sn.id), int64(sn.state.m))
	}
	b = obs.AppendHeader(b, "pfaird_tenant_pending_m",
		"Queued drain-mode shrink target, per tenant (0 = none).", "gauge")
	for _, sn := range snaps {
		b = obs.AppendInt(b, "pfaird_tenant_pending_m", tenantLabel(sn.id), int64(sn.state.pendingM))
	}
	return b
}

// routeLabel and tenantLabel are the label sets of a per-route and a
// per-tenant series.
func routeLabel(route string) []obs.Label { return []obs.Label{{Name: "route", Value: route}} }
func tenantLabel(id string) []obs.Label   { return []obs.Label{{Name: "tenant", Value: id}} }

// appendWALMetrics appends the journal counters to the exposition. A
// non-durable server emits nothing, so PR 2's scrape output is unchanged
// for it.
func (s *Server) appendWALMetrics(b []byte) []byte {
	if s.wal == nil {
		return b
	}
	st := s.wal.Stats()
	b = obs.AppendHeader(b, "pfaird_wal_appends_total",
		"Journal records appended.", "counter")
	b = obs.AppendUint(b, "pfaird_wal_appends_total", nil, st.Appends)
	b = obs.AppendHeader(b, "pfaird_wal_fsyncs_total",
		"Group-commit fsyncs issued.", "counter")
	b = obs.AppendUint(b, "pfaird_wal_fsyncs_total", nil, st.Fsyncs)
	b = obs.AppendHeader(b, "pfaird_wal_append_errors_total",
		"Journal appends refused or failed.", "counter")
	b = obs.AppendUint(b, "pfaird_wal_append_errors_total", nil, st.AppendErrors)
	b = obs.AppendHeader(b, "pfaird_wal_snapshots_total",
		"Snapshots written (compactions).", "counter")
	b = obs.AppendUint(b, "pfaird_wal_snapshots_total", nil, st.Snapshots)
	b = obs.AppendHeader(b, "pfaird_wal_unsynced_records",
		"Records written to the journal but not yet covered by an fsync.", "gauge")
	b = obs.AppendUint(b, "pfaird_wal_unsynced_records", nil, st.Unsynced)
	b = obs.AppendHeader(b, "pfaird_wal_wedged",
		"Whether the journal has failed and refuses writes.", "gauge")
	b = obs.AppendInt(b, "pfaird_wal_wedged", nil, boolGauge(st.Wedged))
	b = obs.AppendHeader(b, "pfaird_commands_total",
		"Commands acknowledged (journaled and applied) since the data dir was created.", "counter")
	b = obs.AppendUint(b, "pfaird_commands_total", nil, s.cmdSeq.Load())
	if rec := s.recovery; rec != nil {
		b = obs.AppendHeader(b, "pfaird_recovery_records_replayed",
			"Journal records replayed at the last boot.", "gauge")
		b = obs.AppendInt(b, "pfaird_recovery_records_replayed", nil, int64(rec.RecordsReplayed))
		b = obs.AppendHeader(b, "pfaird_recovery_truncated_bytes",
			"Bytes discarded at torn segment tails at the last boot.", "gauge")
		b = obs.AppendInt(b, "pfaird_recovery_truncated_bytes", nil, rec.TruncatedBytes)
		b = obs.AppendHeader(b, "pfaird_recovery_replay_errors",
			"Commands that failed to re-apply at the last boot (0 on a healthy recovery).", "gauge")
		b = obs.AppendInt(b, "pfaird_recovery_replay_errors", nil, int64(rec.ReplayErrors))
		b = obs.AppendHeader(b, "pfaird_recovery_dispatch_mismatches",
			"Journaled dispatch records that contradicted replay at the last boot (0 on a healthy recovery).", "gauge")
		b = obs.AppendInt(b, "pfaird_recovery_dispatch_mismatches", nil, int64(rec.DispatchMismatches))
	}
	b = obs.AppendHeader(b, "pfaird_replication_is_leader",
		"Whether this node accepts writes (1) or replicates from a leader (0).", "gauge")
	b = obs.AppendInt(b, "pfaird_replication_is_leader", nil, boolGauge(s.Role() == RoleLeader))
	b = obs.AppendHeader(b, "pfaird_replication_term",
		"Leadership term of the journal.", "gauge")
	b = obs.AppendUint(b, "pfaird_replication_term", nil, s.wal.Term())
	b = obs.AppendHeader(b, "pfaird_replication_applied_lsn",
		"Highest journal LSN reflected in served state.", "gauge")
	b = obs.AppendUint(b, "pfaird_replication_applied_lsn", nil, s.AppliedLSN())
	b = obs.AppendHeader(b, "pfaird_replication_lag_lsn",
		"LSNs this follower trails its leader's durable tip (0 on a leader, -1 before first measurement).", "gauge")
	b = obs.AppendInt(b, "pfaird_replication_lag_lsn", nil, s.replicationLag())
	b = obs.AppendHeader(b, "pfaird_replication_bootstrap_seconds",
		"How long this node took, opened as a follower, to catch up with its leader's durable tip (-1 while it is bootstrapping, 0 on a node that never followed).", "gauge")
	b = obs.AppendFloat(b, "pfaird_replication_bootstrap_seconds", nil, bootstrapSeconds(s.bootstrapNs.Load()))
	b = obs.AppendHeader(b, "pfaird_replication_log_streams",
		"Followers attached to this node's /v1/replication/log right now.", "gauge")
	b = obs.AppendInt(b, "pfaird_replication_log_streams", nil, s.replLogStreams.Load())
	b = obs.AppendHeader(b, "pfaird_replication_apply_errors_total",
		"Replicated commands that failed to re-apply on this follower (0 on a healthy one).", "counter")
	b = obs.AppendInt(b, "pfaird_replication_apply_errors_total", nil, s.replApplyErrors.Load())
	b = obs.AppendHeader(b, "pfaird_replication_dispatch_mismatches_total",
		"Replicated dispatch records that contradicted the decisions this follower regenerated (0 on a healthy one).", "counter")
	b = obs.AppendInt(b, "pfaird_replication_dispatch_mismatches_total", nil, s.replMismatches.Load())
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

func boolGauge(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
