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

	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
)

// Stream reads a newline-delimited feed of E values: a dispatch stream
// (server.DispatchEvent), a trace stream (obs.Event), or a saved copy of
// either. It is forgiving about the byte stream and strict about each
// line: blank lines are skipped, a malformed or truncated line yields an
// error from Next without poisoning the stream (the following lines still
// decode), and no input — garbage, interleaved fragments, oversized lines
// — can make it panic. The FuzzTraceDecoder target pins those properties.
type Stream[E any] struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// NewStream reads body, typically a feed's response body or a saved feed
// file. Lines above 1 MiB fail with bufio.ErrTooLong rather than growing
// without bound.
func NewStream[E any](body io.ReadCloser) *Stream[E] {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Stream[E]{body: body, sc: sc}
}

// Next blocks for the next value. It returns io.EOF when the stream ends
// (tenant deleted, ?follow=false backlog exhausted, or server shutdown), a
// decode error for a malformed line (call Next again to continue past
// it), or the reader's error.
func (s *Stream[E]) Next() (E, error) {
	var ev E
	for s.sc.Scan() {
		line := bytes.TrimSpace(s.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			var zero E
			return zero, fmt.Errorf("client: bad stream line: %w", err)
		}
		return ev, nil
	}
	if err := s.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// Close releases the stream's connection; a blocked Next returns.
func (s *Stream[E]) Close() error { return s.body.Close() }

// StreamDispatches opens GET /v1/tenants/{id}/dispatches. `from` is the
// first decision index to receive; follow=false stops after the current
// backlog instead of following live decisions. Cancel ctx or call Close
// to abandon the stream.
func (c *Client) StreamDispatches(ctx context.Context, tenant string, from int64, follow bool) (*Stream[server.DispatchEvent], error) {
	return openStream[server.DispatchEvent](ctx, c, tenantTarget(tenant, "/dispatches"+feedQuery(from, follow)))
}

// StreamTrace opens GET /v1/tenants/{id}/trace. `from` is the first event
// sequence number to receive — events already evicted from the server's
// bounded ring are skipped, and the Seq gap on the first event shows how
// many. follow=false stops after the retained backlog instead of
// following live commands. Cancel ctx or call Close to abandon the stream.
func (c *Client) StreamTrace(ctx context.Context, tenant string, from int64, follow bool) (*Stream[obs.Event], error) {
	return openStream[obs.Event](ctx, c, tenantTarget(tenant, "/trace"+feedQuery(from, follow)))
}

// openStream sends a feed's GET and reads its 200 body as a Stream.
func openStream[E any](ctx context.Context, c *Client, target string) (*Stream[E], error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, target, "", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return NewStream[E](resp.Body), nil
}

// feedQuery is the query of a feed request: the first position wanted, and
// whether to follow live decisions past the backlog.
func feedQuery(from int64, follow bool) string {
	return "?from=" + strconv.FormatInt(from, 10) + "&follow=" + strconv.FormatBool(follow)
}
