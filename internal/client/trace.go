package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"desyncpfair/internal/obs"
)

// TraceDecoder decodes a newline-delimited stream of obs.Event values, as
// served by GET /v1/tenants/{id}/trace. It is deliberately forgiving about
// the byte stream and strict about each line: blank lines are skipped, a
// malformed or truncated line yields an error from Next without poisoning
// the decoder (the following lines still decode), and no input — garbage,
// interleaved fragments, oversized lines — can make it panic. The
// FuzzTraceDecoder target pins those properties.
type TraceDecoder struct {
	sc *bufio.Scanner
}

// NewTraceDecoder wraps r, typically a trace response body or a saved
// trace file. Lines above 1 MiB fail with bufio.ErrTooLong rather than
// growing without bound.
func NewTraceDecoder(r io.Reader) *TraceDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TraceDecoder{sc: sc}
}

// Next returns the next trace event. It returns io.EOF at end of input, a
// decode error for a malformed line (call Next again to continue past it),
// or the reader's error.
func (d *TraceDecoder) Next() (obs.Event, error) {
	var ev obs.Event
	for d.sc.Scan() {
		line := bytes.TrimSpace(d.sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return obs.Event{}, fmt.Errorf("client: bad trace line: %w", err)
		}
		return ev, nil
	}
	if err := d.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// TraceStream is an open command-lifecycle trace feed; it pairs a live
// response body with a TraceDecoder. Next blocks for the next event and
// returns io.EOF when the stream ends (tenant deleted, ?follow=false
// backlog exhausted, or server shutdown). Close aborts early.
type TraceStream struct {
	body io.ReadCloser
	dec  *TraceDecoder
}

// StreamTrace opens GET /v1/tenants/{id}/trace. `from` is the first event
// sequence number to receive — events already evicted from the server's
// bounded ring are skipped, and the Seq gap on the first event shows how
// many. follow=false stops after the retained backlog instead of
// following live commands. Cancel ctx or call Close to abandon the stream.
func (c *Client) StreamTrace(ctx context.Context, tenant string, from int64, follow bool) (*TraceStream, error) {
	resp, err := c.roundTrip(ctx, http.MethodGet, tenantTarget(tenant, "/trace"+feedQuery(from, follow)), "", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, apiError(resp)
	}
	return &TraceStream{body: resp.Body, dec: NewTraceDecoder(resp.Body)}, nil
}

// Next returns the next trace event, or io.EOF at end of stream.
func (s *TraceStream) Next() (obs.Event, error) { return s.dec.Next() }

// Close releases the stream's connection.
func (s *TraceStream) Close() error { return s.body.Close() }
