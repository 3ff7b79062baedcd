package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/server"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Groups is the backend topology: one replica group per entry, each a
	// list of pfaird base URLs (leader candidates — the health loop
	// discovers which one currently leads). A tenant lives in exactly one
	// group.
	Groups [][]string
	// Policy places new tenants across groups. Nil means rendezvous.
	Policy Placement
	// HealthInterval is the probe period for /v1/replication/status.
	// Default 100ms.
	HealthInterval time.Duration
	// FailoverAfter is how long a group may be leaderless before the
	// router promotes the most caught-up follower. Zero disables
	// auto-promotion.
	FailoverAfter time.Duration
	// RetryWindow bounds how long a proxied idempotent request waits for a
	// leader to (re)appear before giving up with 503. Default 3s.
	RetryWindow time.Duration
	// Logf, if set, receives router events (failovers, promotions).
	Logf func(format string, args ...any)
}

// ParseGroups parses the -backends CLI syntax: groups separated by ';',
// backends within a group separated by ','.
//
//	"http://a:8080,http://a2:8080;http://b:8080"
func ParseGroups(s string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var urls []string
		for _, u := range strings.Split(g, ",") {
			u = strings.TrimRight(strings.TrimSpace(u), "/")
			if u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) > 0 {
			groups = append(groups, urls)
		}
	}
	if len(groups) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	return groups, nil
}

// backendView is one probe's result for one backend; a routeTable is an
// immutable snapshot of the whole topology, rebuilt by the health loop
// and read lock-free by request handlers.
type backendView struct {
	up            *upstream
	healthy       bool
	role          string
	term          uint64
	appliedLSN    uint64
	bootstrapping bool
	tenants       int
	capacityM     int  // ΣM across the backend's tenants (pfaird_tenant_m)
	tenantsKnown  bool // the tenant-gauge scrape succeeded this probe
}

type groupView struct {
	backends []backendView
	leader   int // index into backends, -1 while leaderless
}

type routeTable struct {
	groups []groupView
	// superseded is closed when the health loop publishes the next table: a
	// request that found no leader in this one waits on it.
	superseded chan struct{}
}

func (t *routeTable) loads() []Load {
	loads := make([]Load, len(t.groups))
	for i, g := range t.groups {
		loads[i].Healthy = g.leader >= 0
		if g.leader >= 0 {
			loads[i].Tenants = g.backends[g.leader].tenants
			loads[i].TenantsKnown = g.backends[g.leader].tenantsKnown
			loads[i].CapacityM = g.backends[g.leader].capacityM
		}
	}
	return loads
}

// Router is a stateless front for a set of pfaird replica groups: it
// shards tenants across groups under a Placement policy, proxies writes
// to each group's current leader, fails reads over to the most caught-up
// follower, and — when a group stays leaderless past FailoverAfter —
// promotes the follower with the highest applied LSN. "Stateless" means
// no durable state: the tenant→group map is either recomputed (hashing
// policies) or relearned by probing, so routers can be restarted or run
// in parallel freely.
type Router struct {
	opts   RouterOptions
	ups    [][]*upstream // parallel to opts.Groups: every backend call goes through one
	table  atomic.Pointer[routeTable]
	placed sync.Map // tenant id → group index (learned locations)
	pprof  bool     // Handler mounts /debug/pprof/

	// Owned by the health loop's goroutine: nothing else reads or writes them.
	lastLeader []time.Time // per group: last instant a leader was visible
	promoting  []bool      // per group: promotion request in flight
	// promoted carries each promotion's outcome back to the health loop. One
	// request is in flight per group at most, so a send never blocks.
	promoted chan promotion

	newTicker tickerFunc // the health loop's ticker and the retry wait's; tests replace it

	cancel context.CancelFunc
	done   chan struct{}
}

// promotion is the outcome of one promote request.
type promotion struct {
	gi int
	ok bool
}

// proxyRetryEvery is how long a proxied request that may be resent waits
// before it tries again, when no newer route table wakes it sooner.
const proxyRetryEvery = 50 * time.Millisecond

// NewRouter validates opts and builds a router; Start begins health
// probing.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Groups) == 0 {
		return nil, errors.New("cluster: router needs at least one backend group")
	}
	if opts.Policy == nil {
		opts.Policy = &Rendezvous{}
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 100 * time.Millisecond
	}
	if opts.RetryWindow <= 0 {
		opts.RetryWindow = 3 * time.Second
	}
	r := &Router{
		opts:       opts,
		ups:        make([][]*upstream, len(opts.Groups)),
		lastLeader: make([]time.Time, len(opts.Groups)),
		promoting:  make([]bool, len(opts.Groups)),
		promoted:   make(chan promotion, len(opts.Groups)),
		newTicker:  realTicker,
		done:       make(chan struct{}),
	}
	// Start from an all-unknown table so requests arriving before the
	// first probe round wait in the retry loop instead of crashing.
	t := &routeTable{groups: make([]groupView, len(opts.Groups)), superseded: make(chan struct{})}
	now := time.Now()
	for i, urls := range opts.Groups {
		t.groups[i].leader = -1
		for _, u := range urls {
			up, err := newUpstream(u)
			if err != nil {
				return nil, err
			}
			r.ups[i] = append(r.ups[i], up)
			t.groups[i].backends = append(t.groups[i].backends, backendView{up: up})
		}
		r.lastLeader[i] = now
	}
	r.table.Store(t)
	return r, nil
}

// Start launches the health loop. Close stops it.
func (r *Router) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	go r.healthLoop(ctx)
}

// Close stops the health loop, waits for it, and closes the idle backend
// connections; a request still in flight closes its own when it ends.
func (r *Router) Close() {
	if r.cancel != nil {
		r.cancel()
		<-r.done
	}
	for _, ups := range r.ups {
		for _, up := range ups {
			up.closeIdle()
		}
	}
}

func (r *Router) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

func (r *Router) healthLoop(ctx context.Context) {
	defer close(r.done)
	r.scan(ctx) // probe immediately so the first requests can route
	tick, stop := r.newTicker(r.opts.HealthInterval)
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			r.scan(ctx)
		case p := <-r.promoted:
			// The flag falls whatever the outcome: after a failure the next
			// scan still past FailoverAfter picks a candidate afresh. After a
			// success the group is read again now, not at the next tick, and
			// the table that names the new leader wakes the requests waiting
			// for one.
			r.promoting[p.gi] = false
			if p.ok {
				r.scan(ctx)
			}
		}
	}
}

// scan probes every backend once, publishes a fresh route table, and
// kicks auto-promotion for groups that have been leaderless too long.
func (r *Router) scan(ctx context.Context) {
	scrapeTenants := r.opts.Policy.Name() == "least-loaded"
	t := &routeTable{groups: make([]groupView, len(r.opts.Groups)), superseded: make(chan struct{})}
	var wg sync.WaitGroup
	for gi, ups := range r.ups {
		g := &t.groups[gi]
		g.backends = make([]backendView, len(ups))
		for bi, up := range ups {
			wg.Add(1)
			go func(v *backendView, up *upstream) {
				defer wg.Done()
				*v = r.probe(ctx, up, scrapeTenants)
			}(&g.backends[bi], up)
		}
	}
	wg.Wait()

	now := time.Now()
	for gi := range t.groups {
		g := &t.groups[gi]
		g.leader = -1
		for bi, b := range g.backends {
			if !b.healthy || b.role != "leader" || b.bootstrapping {
				continue
			}
			// Split brain between probe rounds: the higher term is the
			// real timeline, the lower one is fenced.
			if g.leader < 0 || b.term > g.backends[g.leader].term {
				g.leader = bi
			}
		}
		if g.leader >= 0 {
			r.lastLeader[gi] = now
		} else if r.opts.FailoverAfter > 0 && !r.promoting[gi] &&
			now.Sub(r.lastLeader[gi]) > r.opts.FailoverAfter {
			if bi := bestFollower(g.backends); bi >= 0 {
				r.promoting[gi] = true
				go r.promote(ctx, gi, g.backends[bi].up)
			}
		}
	}
	close(r.table.Swap(t).superseded)
}

// bestFollower picks the healthy, caught-up follower with the highest
// applied LSN — the candidate that loses the fewest acked writes (none,
// when it has applied the leader's full durable prefix).
func bestFollower(backends []backendView) int {
	best := -1
	for bi, b := range backends {
		if !b.healthy || b.role != "follower" || b.bootstrapping {
			continue
		}
		if best < 0 || b.appliedLSN > backends[best].appliedLSN {
			best = bi
		}
	}
	return best
}

func (r *Router) probe(ctx context.Context, up *upstream, scrapeTenants bool) backendView {
	v := backendView{up: up}
	ctx, cancel := context.WithTimeout(ctx, r.opts.HealthInterval*5)
	defer cancel()
	var st server.ReplStatusResponse
	if getJSON(ctx, up, "/v1/replication/status", &st) != nil {
		return v
	}
	v.healthy = true
	v.role = st.Role
	v.term = st.Term
	v.appliedLSN = st.AppliedLSN
	v.bootstrapping = st.Bootstrapping
	if scrapeTenants && st.Role == "leader" {
		v.tenants, v.capacityM, v.tenantsKnown = scrapeTenantGauges(ctx, up)
	}
	return v
}

// scrapeTenantGauges reads the placement gauges from a backend's
// /metrics: the pfaird_tenants count and the sum of the per-tenant
// pfaird_tenant_m capacity gauges (which move under resize and the
// autoscaler). The final return distinguishes "gauges read 0" from
// "scrape failed or the count gauge is missing" — the placement policy
// treats only the former as an empty group.
func scrapeTenantGauges(ctx context.Context, up *upstream) (tenants, capacityM int, ok bool) {
	resp, err := up.roundTrip(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return 0, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, false
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, found := strings.CutPrefix(line, "pfaird_tenants "); found {
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				return 0, 0, false
			}
			tenants, ok = n, true
			continue
		}
		if strings.HasPrefix(line, "pfaird_tenant_m{") {
			if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
				if n, err := strconv.Atoi(strings.TrimSpace(line[sp+1:])); err == nil {
					capacityM += n
				}
			}
		}
	}
	if !ok {
		return 0, 0, false
	}
	return tenants, capacityM, true
}

// promote asks one backend to take over its group and reports the outcome
// to the health loop, which started it and is the one to act on it.
func (r *Router) promote(ctx context.Context, gi int, up *upstream) {
	r.logf("group %d leaderless past %v: promoting %s", gi, r.opts.FailoverAfter, up.url)
	reply, err := promoteOnce(ctx, up)
	if err != nil {
		r.logf("promote %s failed: %v; group %d is tried again at the next scan", up.url, err, gi)
	} else {
		r.logf("promoted %s: %s; reading group %d again now", up.url, reply, gi)
	}
	r.promoted <- promotion{gi: gi, ok: err == nil}
}

// promoteOnce is one POST /v1/cluster/promote: the reply body of a 200, an
// error for anything else.
func promoteOnce(ctx context.Context, up *upstream) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	resp, err := up.roundTrip(ctx, http.MethodPost, "/v1/cluster/promote", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	body = bytes.TrimSpace(body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// EnablePprof makes Handler serve net/http/pprof under /debug/pprof/ beside
// the proxy routes, as pfaird does on its own listener. Call before Handler.
func (r *Router) EnablePprof() { r.pprof = true }

// Handler returns the router's HTTP front.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/v1/tenants", r.handleTenantsRoot)
	mux.HandleFunc("/v1/tenants/", r.handleTenant)
	if r.pprof {
		server.MountPprof(mux)
	}
	return mux
}

// RouterHealth is the router's /healthz body.
type RouterHealth struct {
	Status string              `json:"status"`
	Policy string              `json:"policy"`
	Groups []RouterGroupHealth `json:"groups"`
}

type RouterGroupHealth struct {
	Leader   string                `json:"leader,omitempty"`
	Healthy  int                   `json:"healthy"`
	Total    int                   `json:"total"`
	Backends []RouterBackendHealth `json:"backends"`
}

// RouterBackendHealth is the router's connection pool for one backend:
// counters since the router started, and the connections idle right now.
// Dials staying flat under load is the pool working; StaleDiscards counts
// pooled connections the backend had closed, found by the peek before reuse;
// Resends counts requests sent again on a fresh connection because a pooled
// one refused the write outright.
type RouterBackendHealth struct {
	URL           string `json:"url"`
	Dials         int64  `json:"dials"`
	Reuses        int64  `json:"reuses"`
	StaleDiscards int64  `json:"staleDiscards"`
	Resends       int64  `json:"resends"`
	Idle          int    `json:"idle"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	t := r.table.Load()
	resp := RouterHealth{Status: "ok", Policy: r.opts.Policy.Name()}
	for _, g := range t.groups {
		gh := RouterGroupHealth{Total: len(g.backends)}
		for _, b := range g.backends {
			if b.healthy {
				gh.Healthy++
			}
			gh.Backends = append(gh.Backends, RouterBackendHealth{
				URL:           b.up.url,
				Dials:         b.up.dials.Load(),
				Reuses:        b.up.reuses.Load(),
				StaleDiscards: b.up.staleDiscards.Load(),
				Resends:       b.up.resends.Load(),
				Idle:          b.up.idleNow(),
			})
		}
		if g.leader >= 0 {
			gh.Leader = g.backends[g.leader].up.url
		} else {
			resp.Status = "degraded"
		}
		resp.Groups = append(resp.Groups, gh)
	}
	w.Header().Set("Content-Type", "application/json")
	if resp.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		r.logf("cluster: writing healthz body: %v", err)
	}
}

// handleTenantsRoot serves the unsharded root: POST creates a tenant on
// the group the policy picks; GET merges every group's tenant list.
func (r *Router) handleTenantsRoot(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodPost:
		body, ok := r.readBody(w, req)
		if !ok {
			return
		}
		var cr server.CreateTenantRequest
		if err := json.Unmarshal(body, &cr); err != nil || cr.ID == "" {
			r.httpError(w, http.StatusBadRequest, "cluster: malformed create-tenant body")
			return
		}
		gi := r.opts.Policy.Pick(cr.ID, r.table.Load().loads())
		r.placed.Store(cr.ID, gi)
		r.proxyToGroup(w, req, gi, body)
	case http.MethodGet:
		r.handleTenantsMerged(w, req)
	default:
		r.httpError(w, http.StatusMethodNotAllowed, "cluster: method not allowed")
	}
}

func (r *Router) handleTenantsMerged(w http.ResponseWriter, req *http.Request) {
	t := r.table.Load()
	merged := []server.TenantInfo{}
	for gi, g := range t.groups {
		bi := g.leader
		if bi < 0 {
			bi = bestFollower(g.backends)
		}
		if bi < 0 {
			r.httpError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("cluster: group %d has no servable backend", gi))
			return
		}
		var infos []server.TenantInfo
		if err := getJSON(req.Context(), g.backends[bi].up, "/v1/tenants", &infos); err != nil {
			r.httpError(w, http.StatusBadGateway, fmt.Sprintf("cluster: group %d: %v", gi, err))
			return
		}
		merged = append(merged, infos...)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(merged); err != nil {
		r.logf("cluster: writing merged tenant list: %v", err)
	}
}

// getJSON decodes a backend's 200 reply to a GET. The decoder stops at the end
// of the value; the rest of the body — a newline, a chunked reply's last
// chunk — is read out behind it, or the connection could not be reused.
func getJSON(ctx context.Context, up *upstream, target string, out any) error {
	resp, err := up.roundTrip(ctx, http.MethodGet, target, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// maxProxyBody bounds buffered request bodies; buffering is what lets the
// router resend an idempotent request to a freshly promoted leader. It is
// pfaird's own cap on a request body.
const maxProxyBody = server.MaxRequestBody

// readBody buffers a request body for proxying. A body over the cap is
// refused here, in the words pfaird refuses it with, and nothing is proxied:
// the part that fits is not the request.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(req.Body, maxProxyBody+1))
	switch {
	case err != nil:
		r.httpError(w, http.StatusBadRequest, err.Error())
	case len(body) > maxProxyBody:
		r.httpError(w, http.StatusBadRequest, "server: bad request body: http: request body too large")
	default:
		return body, true
	}
	return nil, false
}

// handleTenant proxies /v1/tenants/{id}/... to the tenant's group.
func (r *Router) handleTenant(w http.ResponseWriter, req *http.Request) {
	id, _, sub := strings.Cut(strings.TrimPrefix(req.URL.Path, "/v1/tenants/"), "/")
	if id == "" {
		r.httpError(w, http.StatusNotFound, "cluster: missing tenant id")
		return
	}
	body, ok := r.readBody(w, req)
	if !ok {
		return
	}
	gi, ok := r.locate(req.Context(), id)
	if !ok {
		r.httpError(w, http.StatusNotFound, fmt.Sprintf("cluster: unknown tenant %q", id))
		return
	}
	status := r.proxyToGroup(w, req, gi, body)
	// DELETE /v1/tenants/{id}: the learned location is dropped once a backend
	// has said the tenant is gone — deleted now, or not there — and kept
	// across a failed attempt, whose retry must still find the group.
	if req.Method == http.MethodDelete && !sub && (status/100 == 2 || status == http.StatusNotFound) {
		r.placed.Delete(id)
	}
}

// idempotent reports whether a request may be resent after an ambiguous
// failure. GETs always are, and a tenant create (sent twice, the second is
// answered 409); a job submit is when it carries a client-supplied
// idempotency key (the backend dedupes the resend). The answer can cost a
// decode of the body, so proxyToGroup asks only once an attempt has failed.
func (r *Router) idempotent(req *http.Request, body []byte) bool {
	if req.Method == http.MethodGet {
		return true
	}
	if req.Method != http.MethodPost {
		return false
	}
	if req.URL.Path == "/v1/tenants" {
		return true
	}
	if strings.HasSuffix(req.URL.Path, "/jobs") {
		var sr server.SubmitJobRequest
		if server.DecodeWire(body, &sr) == server.WireOK || json.Unmarshal(body, &sr) == nil {
			return sr.Key != ""
		}
	}
	return false
}

// locate resolves a tenant to its group: deterministic policies answer
// directly, otherwise the learned map, otherwise probe every group.
func (r *Router) locate(ctx context.Context, id string) (int, bool) {
	if gi, ok := r.opts.Policy.Locate(id, len(r.opts.Groups)); ok {
		return gi, true
	}
	if v, ok := r.placed.Load(id); ok {
		return v.(int), true
	}
	t := r.table.Load()
	for gi, g := range t.groups {
		bi := g.leader
		if bi < 0 {
			bi = bestFollower(g.backends)
		}
		if bi < 0 {
			continue
		}
		var info server.TenantInfo
		if getJSON(ctx, g.backends[bi].up, escapeTarget("/v1/tenants/"+id, ""), &info) == nil {
			r.placed.Store(id, gi)
			return gi, true
		}
	}
	return 0, false
}

// proxyToGroup forwards one buffered request to its group, re-resolving
// the target each attempt so a promotion mid-request is picked up. Reads
// fail over to the most caught-up follower; writes wait (inside
// RetryWindow, idempotent requests only) for a leader. It returns the
// status the client was answered with: a backend's, or its own 503.
func (r *Router) proxyToGroup(w http.ResponseWriter, req *http.Request, gi int, body []byte) int {
	isRead := req.Method == http.MethodGet
	deadline := time.Now().Add(r.opts.RetryWindow)
	var lastErr error
	for {
		t := r.table.Load()
		g := t.groups[gi]
		bi := g.leader
		if isRead && bi < 0 {
			bi = bestFollower(g.backends)
		}
		if bi >= 0 {
			status, err := proxyOnce(w, req, g.backends[bi].up, body)
			if err == nil {
				return status
			}
			lastErr = err
		} else {
			lastErr = fmt.Errorf("group %d has no leader", gi)
		}
		if !r.idempotent(req, body) || time.Now().After(deadline) || req.Context().Err() != nil {
			break
		}
		// A newer table than the one this attempt routed by ends the wait
		// early: the health loop publishes one the moment a promotion it
		// made returns. Otherwise the request tries again on its period.
		retry, stop := r.newTicker(proxyRetryEvery)
		select {
		case <-req.Context().Done():
		case <-t.superseded:
		case <-retry:
		}
		stop()
	}
	w.Header().Set("Retry-After", "1")
	r.httpError(w, http.StatusServiceUnavailable, fmt.Sprintf("cluster: %v", lastErr))
	return http.StatusServiceUnavailable
}

// proxyOnce sends the buffered request to one backend and streams the
// reply, whose status it returns. A returned error means nothing was
// written to w, so the caller is free to retry another backend. Backend
// 5xx/503 replies on retryable requests are reported as errors (not
// streamed) so a request racing a promotion retries instead of surfacing
// the follower's refusal.
func proxyOnce(w http.ResponseWriter, req *http.Request, up *upstream, body []byte) (int, error) {
	resp, err := up.roundTrip(req.Context(), req.Method, escapeTarget(req.URL.Path, req.URL.RawQuery),
		req.Header.Get("Content-Type"), body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return 0, fmt.Errorf("%s: HTTP %d: %s", up.url, resp.StatusCode, bytes.TrimSpace(b))
	}
	for _, k := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	// A reply whose length the backend declared keeps it: set here, the
	// header stops net/http from turning the reply into a chunked stream.
	// (A declared length of 0 needs no header; the server adds its own.)
	if resp.ContentLength > 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	copyReply(w, resp.Body, resp.ContentLength < 0)
	return resp.StatusCode, nil
}

// copyBufs recycles the buffers replies are copied through.
var copyBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// copyReply copies a backend's reply body to w. live marks a body of
// undeclared length — an NDJSON feed — which is flushed at once (the feed
// of an idle tenant must still open) and after every read, so its frames
// cross the proxy hop as they are made; a reply of declared length is left
// to go out whole, under its Content-Length.
func copyReply(w http.ResponseWriter, src io.Reader, live bool) {
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	fl, _ := w.(http.Flusher)
	if live && fl != nil {
		fl.Flush()
	}
	for {
		n, err := src.Read(*bp)
		if n > 0 {
			if _, werr := w.Write((*bp)[:n]); werr != nil {
				return
			}
			if live && fl != nil {
				fl.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// httpError writes a JSON error body. An Encode failure here means the
// client hung up mid-error (or the connection broke); the status line was
// already committed, so all that remains is to record it in the request
// log rather than drop it silently.
func (r *Router) httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(server.ErrorResponse{Error: msg}); err != nil {
		r.logf("cluster: writing %d error body: %v", code, err)
	}
}
