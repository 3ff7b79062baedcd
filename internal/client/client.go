// Package client is the Go client for the pfaird scheduling service
// (internal/server): typed wrappers over the JSON API plus a streaming
// decoder for the newline-delimited dispatch feed. cmd/pfairload builds
// its load generator on this package, and tests use it to drive in-process
// httptest servers, so the wire protocol is exercised end to end.
//
// A Client is safe for concurrent use; each method is one HTTP request.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wire"
)

// Client talks to one pfaird server. WithRetry derives a view that
// retries idempotent GETs with capped exponential backoff.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New creates a client for the server at base (e.g. "http://localhost:8080").
// A nil hc uses http.DefaultClient.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, hc: hc}
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
func (c *Client) doOnce(ctx context.Context, method, path string, in, out any) error {
	scratch := wire.GetBuf()
	defer scratch.Put()
	var body io.Reader
	if in != nil {
		var buf []byte
		if enc, res := server.AppendWire(scratch.B, in); res == server.WireOK {
			// The transport may still be reading the body after Do returns:
			// it gets a copy of its own, the scratch goes back to the pool.
			buf = bytes.Clone(enc)
			scratch.B = enc[:0]
		} else {
			var err error
			if buf, err = json.Marshal(in); err != nil {
				return err
			}
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
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
	return c.do(ctx, http.MethodDelete, "/v1/tenants/"+id, nil, nil)
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
	err := c.do(ctx, http.MethodGet, "/v1/tenants/"+id, nil, &info)
	return info, err
}

// RegisterTask admits a task of weight E/P. A capacity rejection comes
// back as an *APIError with IsReject(err) == true.
func (c *Client) RegisterTask(ctx context.Context, tenant, name string, w model.Weight) (server.RegisterTaskResponse, error) {
	var resp server.RegisterTaskResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/tasks",
		server.RegisterTaskRequest{Name: name, E: w.E, P: w.P}, &resp)
	return resp, err
}

// UnregisterTask removes a task, releasing its capacity.
func (c *Client) UnregisterTask(ctx context.Context, tenant, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/tenants/"+tenant+"/tasks/"+name, nil, nil)
}

// SubmitJob releases one job of the task. An empty `at` submits at the
// tenant's current virtual time.
func (c *Client) SubmitJob(ctx context.Context, tenant, task, at string) (server.SubmitJobResponse, error) {
	var resp server.SubmitJobResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/jobs",
		server.SubmitJobRequest{Task: task, At: at}, &resp)
	return resp, err
}

// SubmitJobs releases a batch of jobs in one request through
// POST /v1/tenants/{id}/jobs:batch. The batch is atomic: either every job
// is accepted (one durability ack covers them all) or none is.
func (c *Client) SubmitJobs(ctx context.Context, tenant string, jobs []server.SubmitJobRequest) (server.SubmitJobsResponse, error) {
	var resp server.SubmitJobsResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/jobs:batch",
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
	err := c.doRetry(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/jobs", req, &resp, req.Key != "")
	return resp, err
}

// SubmitJobEarly is SubmitJob with early releasing by up to `earliness`
// slots.
func (c *Client) SubmitJobEarly(ctx context.Context, tenant, task, at string, earliness int64) (server.SubmitJobResponse, error) {
	var resp server.SubmitJobResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/jobs",
		server.SubmitJobRequest{Task: task, At: at, Earliness: earliness}, &resp)
	return resp, err
}

// Advance moves the tenant's virtual time to the absolute time `until`.
func (c *Client) Advance(ctx context.Context, tenant, until string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/advance",
		server.AdvanceRequest{Until: until}, &resp)
	return resp, err
}

// AdvanceBy moves the tenant's virtual time forward by `by` (race-free
// under concurrent clients).
func (c *Client) AdvanceBy(ctx context.Context, tenant, by string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/advance",
		server.AdvanceRequest{By: by}, &resp)
	return resp, err
}

// Drain dispatches everything the tenant has released so far.
func (c *Client) Drain(ctx context.Context, tenant string) (server.AdvanceResponse, error) {
	var resp server.AdvanceResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/drain", nil, &resp)
	return resp, err
}

// Resize changes the tenant's processor count. A shrink below current
// utilization fails with a 409 APIError (IsReject) unless drain is set,
// in which case it is queued and the response reports Outcome "queued"
// with the pending target.
func (c *Client) Resize(ctx context.Context, tenant string, m int, drain bool) (server.ResizeResponse, error) {
	var resp server.ResizeResponse
	err := c.do(ctx, http.MethodPost, "/v1/tenants/"+tenant+"/resize",
		server.ResizeRequest{M: m, Drain: drain}, &resp)
	return resp, err
}

// Stream is an open dispatch feed. Next blocks for the next decision;
// it returns io.EOF when the stream ends (tenant deleted, ?follow=false
// backlog exhausted, or server shutdown). Close aborts early.
type Stream struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// StreamDispatches opens GET /v1/tenants/{id}/dispatches. `from` is the
// first decision index to receive; follow=false stops after the current
// backlog instead of following live decisions. Cancel ctx or call Close
// to abandon the stream.
func (c *Client) StreamDispatches(ctx context.Context, tenant string, from int64, follow bool) (*Stream, error) {
	url := fmt.Sprintf("%s/v1/tenants/%s/dispatches?from=%d&follow=%v", c.base, tenant, from, follow)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Stream{body: resp.Body, sc: sc}, nil
}

// StreamGoneError is returned by Stream.Next when the server evicted the
// stream for lagging past its backlog bound (an in-band 410 control
// line). ResumeFrom is the decision index to reconnect with: call
// StreamDispatches again with from=ResumeFrom to pick up where the
// eviction cut in.
type StreamGoneError struct {
	Message    string
	ResumeFrom int64
}

func (e *StreamGoneError) Error() string { return e.Message }

// Next returns the next dispatch decision, or io.EOF at end of stream.
// A *StreamGoneError means the server evicted this stream for lagging;
// reconnect with from=ResumeFrom.
func (s *Stream) Next() (server.DispatchEvent, error) {
	var ev server.DispatchEvent
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		// Dispatch events never carry an "error" key, so a line that
		// decodes with one set is an in-band control line, not an event.
		if bytes.Contains(line, []byte(`"error"`)) {
			var gone server.StreamGone
			if json.Unmarshal(line, &gone) == nil && gone.Error != "" {
				return ev, &StreamGoneError{Message: gone.Error, ResumeFrom: gone.ResumeFrom}
			}
		}
		err := json.Unmarshal(line, &ev)
		return ev, err
	}
	if err := s.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// Close releases the stream's connection.
func (s *Stream) Close() error { return s.body.Close() }
