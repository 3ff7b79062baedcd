// Package client is the Go client for the pfaird scheduling service
// (internal/server): typed wrappers over the JSON API plus one streaming
// reader, Stream, for its newline-delimited dispatch and trace feeds.
// cmd/pfairload builds its load generator on this package, and tests use
// it to drive in-process httptest servers, so the wire protocol is
// exercised end to end.
//
// A Client is safe for concurrent use; each method is one HTTP request, sent
// through internal/hop, the repository's one outbound HTTP path.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"desyncpfair/internal/hop"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wire"
)

// Client talks to one pfaird server. WithRetry derives a view that
// retries idempotent GETs with capped exponential backoff.
type Client struct {
	up    *hop.Upstream // shared by every Client of the same base
	err   error         // the base's refusal, returned by every call
	retry RetryPolicy
}

// upstreams holds one connection pool per base for the whole process, as
// http.DefaultTransport did: every Client of a base, and every WithRetry view
// of one, sends through the same pooled connections, so a Client owns no
// socket and needs no Close. A pool is never closed and never evicted: a
// connection its server has closed is dropped the next time the pool is used,
// and the idle connections to a base that is never used again stay open until
// the process exits (up to 32 per base — a test binary that starts many
// servers keeps them).
var upstreams sync.Map // base → *hop.Upstream

// New creates a client for the server at base, which must be
// http://host:port (e.g. "http://localhost:8080"; trailing slashes are
// dropped): pfaird serves no TLS and no path prefix, and pfair-router refuses
// the same bases. With any other base every call returns the refusal. hc is
// unused: requests go through internal/hop's pool, not an http.Client. Pass
// nil.
func New(base string, hc *http.Client) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	if up, ok := upstreams.Load(base); ok {
		return &Client{up: up.(*hop.Upstream)}
	}
	up, err := hop.New(base)
	if err != nil {
		return &Client{err: err}
	}
	shared, _ := upstreams.LoadOrStore(base, up)
	return &Client{up: shared.(*hop.Upstream)}
}

// roundTrip sends one request; the caller closes the reply's body.
func (c *Client) roundTrip(ctx context.Context, method, target, contentType string, body []byte) (*http.Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	return c.up.RoundTrip(ctx, method, target, contentType, body)
}

// tenantTarget is the request-target of a route under /v1/tenants/{id}: the
// id escaped as one path segment, then sub, so that an id holding '/', '?',
// '#', '%' or a space names that tenant and no other. A plain id
// ([A-Za-z0-9._-]) goes out as it is.
func tenantTarget(id, sub string) string {
	return "/v1/tenants/" + url.PathEscape(id) + sub
}

// APIError is a non-2xx reply, carrying the HTTP status and the server's
// error (or admission-rejection) message. RetryAfter is the reply's
// Retry-After header (zero when absent); the retry loop sleeps at least
// that long before resending.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("pfaird: HTTP %d: %s", e.Status, e.Msg)
}

// IsReject reports whether err is an admission rejection (HTTP 409 from
// task registration) rather than a malformed or failed request.
func IsReject(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusConflict
}

func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, in, out, false)
}

// doOnce is a single request attempt; the request body is rebuilt from
// `in` on every call so retries never resend a drained reader. Both bodies
// go through the server's hand-written codec (server.AppendWire /
// DecodeWire) when the type has one and it does not decline; encoding/json
// takes the rest, as it took everything before.
func (c *Client) doOnce(ctx context.Context, method, target string, in, out any) error {
	scratch := wire.GetBuf()
	defer scratch.Put()
	var body []byte
	contentType := ""
	if in != nil {
		contentType = "application/json"
		if enc, res := server.AppendWire(scratch.B, in); res == server.WireOK {
			// The round trip copies the body into its own request buffer, so
			// once it returns the scratch is free to take the reply.
			body, scratch.B = enc, enc[:0]
		} else {
			var err error
			if body, err = json.Marshal(in); err != nil {
				return err
			}
		}
	}
	resp, err := c.roundTrip(ctx, method, target, contentType, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	rerr := scratch.ReadAll(resp.Body)
	if rerr == nil && server.DecodeWire(scratch.B, out) == server.WireOK {
		return nil
	}
	// A Decoder stops at the end of the first value, so a read that failed
	// only past that point was never an error of this request.
	if err := json.NewDecoder(bytes.NewReader(scratch.B)).Decode(out); err != nil {
		if rerr != nil {
			return rerr
		}
		return err
	}
	return nil
}

func apiError(resp *http.Response) error {
	var e server.ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &e) != nil || e.Error == "" {
		// Admission rejections return a RegisterTaskResponse body.
		var rej server.RegisterTaskResponse
		if json.Unmarshal(raw, &rej) == nil && rej.Reason != "" {
			e.Error = rej.Reason
		} else {
			e.Error = string(bytes.TrimSpace(raw))
		}
	}
	ae := &APIError{Status: resp.StatusCode, Msg: e.Error}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the raw /metrics text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", apiError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// CreateTenant creates a tenant on m processors ("" policy = PD²).
func (c *Client) CreateTenant(ctx context.Context, id string, m int, policy string) (server.TenantInfo, error) {
	var info server.TenantInfo
	err := c.do(ctx, http.MethodPost, "/v1/tenants",
		server.CreateTenantRequest{ID: id, M: m, Policy: policy}, &info)
	return info, err
}

// DeleteTenant removes a tenant, ending its dispatch streams.
func (c *Client) DeleteTenant(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, tenantTarget(id, ""), nil, nil)
}

// Tenants lists all tenants.
func (c *Client) Tenants(ctx context.Context) ([]server.TenantInfo, error) {
	var infos []server.TenantInfo
	err := c.do(ctx, http.MethodGet, "/v1/tenants", nil, &infos)
	return infos, err
}

// Tenant fetches one tenant snapshot.
func (c *Client) Tenant(ctx context.Context, id string) (server.TenantInfo, error) {
	var info server.TenantInfo
	err := c.do(ctx, http.MethodGet, tenantTarget(id, ""), nil, &info)
	return info, err
}

// RegisterTask admits a task of weight E/P. A capacity rejection comes
// back as an *APIError with IsReject(err) == true.
func (c *Client) RegisterTask(ctx context.Context, tenant, name string, w model.Weight) (server.RegisterTaskResponse, error) {
	var resp server.RegisterTaskResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/tasks"),
		server.RegisterTaskRequest{Name: name, E: w.E, P: w.P}, &resp)
	return resp, err
}

// UnregisterTask removes a task, releasing its capacity.
func (c *Client) UnregisterTask(ctx context.Context, tenant, name string) error {
	return c.do(ctx, http.MethodDelete, tenantTarget(tenant, "/tasks/"+url.PathEscape(name)), nil, nil)
}

// SubmitJob releases one job of the task. An empty `at` submits at the
// tenant's current virtual time.
func (c *Client) SubmitJob(ctx context.Context, tenant, task, at string) (server.SubmitJobResponse, error) {
	var resp server.SubmitJobResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/jobs"),
		server.SubmitJobRequest{Task: task, At: at}, &resp)
	return resp, err
}

// SubmitJobs releases a batch of jobs in one request through
// POST /v1/tenants/{id}/jobs:batch. The batch is atomic: either every job
// is accepted (one durability ack covers them all) or none is.
func (c *Client) SubmitJobs(ctx context.Context, tenant string, jobs []server.SubmitJobRequest) (server.SubmitJobsResponse, error) {
	var resp server.SubmitJobsResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/jobs:batch"),
		server.SubmitJobsRequest{Jobs: jobs}, &resp)
	return resp, err
}

// SubmitJobKeyed releases one job with a client-supplied idempotency key
// (req.Key). Under a retry policy the POST retries on transport errors
// and 5xx like a GET would: the server remembers the key, so a resend of
// an already-applied submit returns the original response instead of
// double-applying — which makes this the submit to use across failovers.
func (c *Client) SubmitJobKeyed(ctx context.Context, tenant string, req server.SubmitJobRequest) (server.SubmitJobResponse, error) {
	var resp server.SubmitJobResponse
	err := c.doRetry(ctx, http.MethodPost, tenantTarget(tenant, "/jobs"), req, &resp, req.Key != "")
	return resp, err
}

// SubmitJobEarly is SubmitJob with early releasing by up to `earliness`
// slots.
func (c *Client) SubmitJobEarly(ctx context.Context, tenant, task, at string, earliness int64) (server.SubmitJobResponse, error) {
	var resp server.SubmitJobResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/jobs"),
		server.SubmitJobRequest{Task: task, At: at, Earliness: earliness}, &resp)
	return resp, err
}

// Advance moves the tenant's virtual time to the absolute time `until`.
func (c *Client) Advance(ctx context.Context, tenant, until string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/advance"),
		server.AdvanceRequest{Until: until}, &resp)
	return resp, err
}

// AdvanceBy moves the tenant's virtual time forward by `by` (race-free
// under concurrent clients).
func (c *Client) AdvanceBy(ctx context.Context, tenant, by string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/advance"),
		server.AdvanceRequest{By: by}, &resp)
	return resp, err
}

// Drain dispatches everything the tenant has released so far.
func (c *Client) Drain(ctx context.Context, tenant string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/drain"), nil, &resp)
	return resp, err
}

// Resize changes the tenant's processor count. A shrink below current
// utilization fails with a 409 APIError (IsReject) unless drain is set,
// in which case it is queued and the response reports Outcome "queued"
// with the pending target.
func (c *Client) Resize(ctx context.Context, tenant string, m int, drain bool) (server.ResizeResponse, error) {
	var resp server.ResizeResponse
	err := c.do(ctx, http.MethodPost, tenantTarget(tenant, "/resize"),
		server.ResizeRequest{M: m, Drain: drain}, &resp)
	return resp, err
}
