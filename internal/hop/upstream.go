// Package hop is the repository's one HTTP/1.1 path, both directions. Outbound,
// pfair-router's calls to its backends, a follower's calls to its leader and
// internal/client's calls to pfaird go through an Upstream, which writes each
// request head and reads each reply head itself; inbound, pfaird and
// pfair-router serve their handlers through a Server, which reads each request
// with http.ReadRequest. It imports only the standard library and
// internal/wire.
package hop

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"desyncpfair/internal/wire"
)

// One value of each is in use, so they are constants beside the code and not
// options.
const (
	// maxIdleConns bounds the idle connections an upstream keeps. A request
	// that finds none dials; a reply that finds the pool full closes its
	// connection. A caller's concurrency is its own callers', so this is how
	// many of them can alternate on one backend without a redial: with more
	// (pfairload -workers above 32), replies past the 32nd close their
	// connections and the next round dials them again.
	maxIdleConns = 32
	// dialTimeout bounds one TCP connect to a backend.
	dialTimeout = 5 * time.Second
)

// Upstream is one backend: a bounded pool of idle TCP connections and a round
// trip that runs on the calling goroutine — the request written by hand with
// one Write, the reply head read by readReply, which refuses what it does not
// need to understand. It is what net/http's Transport did at a fraction of the
// cost: no read-loop and write-loop goroutines, no channel hand-offs, no parsed
// URL and cloned request per call, no header map for a JSON reply.
type Upstream struct {
	URL  string // the backend as configured: logs, errors, /healthz
	addr string // its host:port: what is dialed and what Host says

	Dials         atomic.Int64 // connections opened
	Reuses        atomic.Int64 // requests sent on a pooled connection
	StaleDiscards atomic.Int64 // pooled connections found closed by the peer before reuse
	Resends       atomic.Int64 // requests sent again because a pooled connection refused the write

	mu     sync.Mutex
	idle   []*upstreamConn // most recently used last, and taken first
	closed bool            // CloseIdle ran: connections are closed, not kept

	dial DialFunc // nil means TCP through a net.Dialer
}

// DialFunc opens a connection to addr, a backend's host:port. It is the
// outbound half's one transport seam: hoptest.Pipes.Dial reaches a Server with
// no socket.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// DialWith makes u open its connections with dial, or with TCP if dial is nil.
// Set it before u's first request.
func DialWith(u *Upstream, dial DialFunc) {
	u.dial = dial
}

// New accepts http://host:port and nothing else: pfaird serves no TLS and no
// path prefix, and a backend that could never answer is better refused once
// than per request.
func New(backend string) (*Upstream, error) {
	u, err := url.Parse(backend)
	if err != nil || u.Hostname() == "" || u.Port() == "" || backend != "http://"+u.Host {
		return nil, fmt.Errorf("hop: backend %q: want http://host:port", backend)
	}
	return &Upstream{URL: backend, addr: u.Host}, nil
}

// upstreamConn is one TCP connection to a backend, held by one request at a
// time or by the pool.
type upstreamConn struct {
	net.Conn
	br *bufio.Reader

	// The pre-reuse peek (see usable), its closure built once per connection.
	raw  syscall.RawConn
	peek func(fd uintptr) bool
	quit bool // the peek found bytes, the peer's close, or an error
	// abort closes the connection; it is bound once so that registering it
	// on a request's context costs no allocation of its own.
	abort func()
}

func newUpstreamConn(c net.Conn) *upstreamConn {
	uc := &upstreamConn{Conn: c, br: bufio.NewReader(c)}
	uc.abort = func() { uc.Close() }
	if sc, ok := c.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			uc.raw = raw
			uc.peek = func(fd uintptr) bool {
				uc.quit = !fdQuiet(fd)
				return true // never wait for readability
			}
		}
	}
	return uc
}

// usable reports whether a pooled connection can carry another request. An
// idle HTTP/1.1 connection has nothing to read, so one non-blocking read
// (go-sql-driver's connCheck) tells a live connection — EAGAIN — from one the
// backend closed while it sat in the pool, or that holds bytes nobody asked
// for. It is what lets a request of any method go out on a pooled connection:
// the common stale case is found before a byte is written.
func (uc *upstreamConn) usable() bool {
	if uc.br.Buffered() > 0 {
		return false
	}
	if uc.raw == nil {
		return true
	}
	uc.quit = false
	return uc.raw.Read(uc.peek) == nil && !uc.quit
}

// conn returns a connection to send on: the most recently pooled one that is
// still usable, else a new one. reused tells the two apart.
func (u *Upstream) conn(ctx context.Context) (uc *upstreamConn, reused bool, err error) {
	for {
		u.mu.Lock()
		n := len(u.idle)
		if n == 0 {
			u.mu.Unlock()
			break
		}
		uc, u.idle[n-1] = u.idle[n-1], nil
		u.idle = u.idle[:n-1]
		u.mu.Unlock()
		if uc.usable() {
			u.Reuses.Add(1)
			return uc, true, nil
		}
		u.StaleDiscards.Add(1)
		uc.Close()
	}
	dial := u.dial
	if dial == nil {
		dial = dialTCP
	}
	c, err := dial(ctx, u.addr)
	if err != nil {
		return nil, false, err
	}
	u.Dials.Add(1)
	return newUpstreamConn(c), false, nil
}

func dialTCP(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// put returns a connection whose reply was read to its end.
func (u *Upstream) put(uc *upstreamConn) {
	u.mu.Lock()
	if u.closed || len(u.idle) >= maxIdleConns {
		u.mu.Unlock()
		uc.Close()
		return
	}
	u.idle = append(u.idle, uc)
	u.mu.Unlock()
}

// CloseIdle closes the pooled connections and keeps none from then on; a
// request in flight finishes and closes its own.
func (u *Upstream) CloseIdle() {
	u.mu.Lock()
	idle := u.idle
	u.idle, u.closed = nil, true
	u.mu.Unlock()
	for _, uc := range idle {
		uc.Close()
	}
}

// IdleNow is the number of connections in the pool.
func (u *Upstream) IdleNow() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}

// RoundTrip sends one request and returns the reply with its body unread. The
// caller closes the body: read to its end first, the connection goes back to
// the pool; closed early (a live feed whose reader left), or after a reply
// that said Connection: close, it is closed. ctx ending at any point closes
// the connection and fails the pending read or write.
//
// The reply is read by readReply, not http.ReadResponse: its Header holds only
// Content-Type and Retry-After and is read-only, and Status and Request are
// not set.
//
// The resend rule is no weaker than net/http's. A pooled connection is peeked
// before use, and one that still fails its Write without taking a byte — the
// peer's reset beat the peek — is replaced and the request sent again: nothing
// reached a backend. Every other failure is returned, whatever the method;
// whether the request may go out a second time is the caller's decision (the
// router's proxyToGroup, the client's retry policy), which knows if it carries
// an idempotency key. (net/http would also resend a GET whose pooled
// connection died before the reply's first byte.)
func (u *Upstream) RoundTrip(ctx context.Context, method, target, contentType string, body []byte) (*http.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if method == "" || !strings.HasPrefix(target, "/") || !headSafe(method, true) || !headSafe(target, true) || !headSafe(contentType, false) {
		return nil, fmt.Errorf("hop: refusing to send %q %q (Content-Type %q) upstream", method, target, contentType)
	}
	buf := wire.GetBuf()
	defer buf.Put()
	buf.B = u.appendRequest(buf.B, method, target, contentType, body)

	for {
		uc, reused, err := u.conn(ctx)
		if err != nil {
			return nil, u.failed(ctx, method, target, err)
		}
		stop := afterFunc(ctx, uc.abort)
		n, err := uc.Write(buf.B)
		if err == nil {
			r := new(reply)
			if err = readReply(uc.br, method == http.MethodHead, r); err == nil {
				r.body.up, r.body.uc, r.body.stop = u, uc, stop
				r.resp.Body = &r.body
				return &r.resp, nil
			}
		}
		stop()
		uc.Close()
		// n is 0 only when the Write itself failed, and took nothing.
		if n == 0 && reused && ctx.Err() == nil {
			u.Resends.Add(1)
			continue
		}
		return nil, u.failed(ctx, method, target, err)
	}
}

// afterFunc is context.AfterFunc(ctx, f) without its wrapper where none is
// needed: a Server's request context — the router's calls run on one —
// registers f itself, and a context that is never done registers nothing.
func afterFunc(ctx context.Context, f func()) (stop func() bool) {
	if x, ok := ctx.(interface{ AfterFunc(func()) func() bool }); ok {
		return x.AfterFunc(f)
	}
	if ctx.Done() == nil {
		return neverRan
	}
	return context.AfterFunc(ctx, f)
}

func neverRan() bool { return true }

// failed words a round trip's error. Once ctx has ended the connection's own
// error is only our Close showing through.
func (u *Upstream) failed(ctx context.Context, method, target string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	}
	return fmt.Errorf("%s %s%s: %w", method, u.URL, target, err)
}

// appendRequest writes the whole request: the head net/http's client would
// have sent for it, less User-Agent and Accept-Encoding (nothing reads the
// first, and nothing is to be compressed on a caller's behalf), then the body.
func (u *Upstream) appendRequest(b []byte, method, target, contentType string, body []byte) []byte {
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, u.addr...)
	if contentType != "" {
		b = append(b, "\r\nContent-Type: "...)
		b = append(b, contentType...)
	}
	// net/http's rule: a length whenever there is a body, and a zero one for
	// the methods that usually carry one.
	if len(body) > 0 || method == http.MethodPost || method == http.MethodPut || method == http.MethodPatch {
		b = append(b, "\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// headSafe reports whether s can go into the request head: nothing in it ends
// a line, and — for the parts of the request line — nothing splits it. The
// head is written by hand, so it is checked by hand; for the router the
// inbound Server's request parsing has already refused all of this, and this
// is the second lock.
func headSafe(s string, requestLine bool) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == 0x7f, c < ' ' && c != '\t', requestLine && (c == ' ' || c == '\t'):
			return false
		}
	}
	return true
}

// reply is what a round trip allocates: the response and the body it hands
// out, in one object.
type reply struct {
	resp http.Response
	body upstreamBody
}

// The Header of nearly every reply, shared and therefore read-only, and the
// TransferEncoding of a chunked one.
const jsonType = "application/json"

var (
	jsonHeader  = http.Header{"Content-Type": {jsonType}}
	chunkedOnly = []string{"chunked"}
)

// maxReplyHead bounds the bytes of a reply head. A line must also fit the
// connection's read buffer (4 KiB): the replies of a Server and of net/http's
// server are a few hundred bytes.
const maxReplyHead = 64 << 10

var (
	errReplyHead    = errors.New("hop: malformed reply head")
	errReplyTrailer = errors.New("hop: chunked reply with a trailer")
)

// readReply reads a reply head off br into r and frames its body. A reply's
// senders are Servers, so it is strict where net/http's reader is lenient,
// and whatever it accepts http.ReadResponse reads the same way
// (FuzzReplyMatchesNetHTTP): an HTTP/1.1 or HTTP/1.0 status line with one
// space on each side of a three-digit final status; header lines that end in
// CRLF, a token, a colon and a value of the bytes net/textproto allows, no
// folded line; at most one Content-Length value (repeated only as itself,
// with no leading zero), a Transfer-Encoding only as one "chunked" in an
// HTTP/1.1 reply and never beside a Content-Length; no Trailer field. Of the
// fields it keeps Content-Type and Retry-After (the first of each) and
// Connection's close and keep-alive; what frames the body is net/http's rule.
func readReply(br *bufio.Reader, head bool, r *reply) error {
	budget := maxReplyHead
	line, err := headLine(br, &budget)
	if err != nil {
		return err
	}
	if len(line) < 12 || line[8] != ' ' || len(line) > 12 && line[12] != ' ' {
		return errReplyHead
	}
	is11 := string(line[:8]) == "HTTP/1.1"
	if !is11 && string(line[:8]) != "HTTP/1.0" {
		return errReplyHead
	}
	code := 0
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return errReplyHead
		}
		code = 10*code + int(c-'0')
	}
	if code < 200 {
		return errReplyHead // no request of ours asks for an interim reply
	}

	length := int64(-1)
	var chunked, connClose, keepAlive, haveType, haveRetry bool
	var contentType, retryAfter string
	for {
		if line, err = headLine(br, &budget); err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		name, value, ok := field(line)
		if !ok {
			return errReplyHead
		}
		switch {
		case fieldIs(name, "Content-Length"):
			n, ok := parseLength(value)
			if !ok || length >= 0 && n != length {
				return errReplyHead
			}
			length = n
		case fieldIs(name, "Transfer-Encoding"):
			if chunked || !is11 || !fieldIs(value, "chunked") {
				return errReplyHead
			}
			chunked = true
		case fieldIs(name, "Connection"):
			connClose = connClose || hasElement(value, "close")
			keepAlive = keepAlive || hasElement(value, "keep-alive")
		case fieldIs(name, "Content-Type"):
			if !haveType {
				haveType, contentType = true, jsonType
				if string(value) != jsonType {
					contentType = string(value)
				}
			}
		case fieldIs(name, "Retry-After"):
			if !haveRetry {
				haveRetry, retryAfter = true, string(value)
			}
		case fieldIs(name, "Trailer"):
			return errReplyHead
		}
	}
	if chunked && length >= 0 {
		return errReplyHead
	}

	resp := &r.resp
	resp.StatusCode = code
	resp.Proto, resp.ProtoMajor, resp.ProtoMinor = "HTTP/1.0", 1, 0
	if is11 {
		resp.Proto, resp.ProtoMinor = "HTTP/1.1", 1
	}
	switch {
	case haveType && !haveRetry && contentType == jsonType:
		resp.Header = jsonHeader
	case haveType || haveRetry:
		resp.Header = make(http.Header, 2)
		if haveType {
			resp.Header["Content-Type"] = []string{contentType}
		}
		if haveRetry {
			resp.Header["Retry-After"] = []string{retryAfter}
		}
	}
	if chunked {
		resp.TransferEncoding = chunkedOnly
	}
	resp.Close = connClose || !is11 && !keepAlive
	b := &r.body
	switch {
	case head:
		resp.ContentLength, b.eof = length, true
	case code == http.StatusNoContent || code == http.StatusNotModified:
		resp.ContentLength, b.eof = 0, true
	case chunked:
		resp.ContentLength, b.remain, b.chunks = -1, -1, httputil.NewChunkedReader(br)
	case length >= 0:
		resp.ContentLength, b.remain, b.eof = length, length, length == 0
	default: // the body ends with the connection
		resp.ContentLength, b.remain, resp.Close = -1, -1, true
	}
	b.keep, b.br = !resp.Close, br
	return nil
}

// headLine returns the next line of a head without its CRLF, charged to
// budget. The line is br's until the next read.
func headLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if *budget -= len(line); *budget < 0 || err == bufio.ErrBufferFull {
		return nil, errReplyHead
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errReplyHead
	}
	return line[:len(line)-2], nil
}

// field splits a header line into its name, a token, and its value without
// the spaces and tabs around it, and checks the value's bytes as
// net/textproto does.
func field(line []byte) (name, value []byte, ok bool) {
	i := bytes.IndexByte(line, ':')
	if i < 0 || !validFieldName(line[:i]) || !validFieldValue(line[i+1:]) {
		return nil, nil, false
	}
	return line[:i], bytes.Trim(line[i+1:], " \t"), true
}

// fieldIs reports whether b is s, ASCII case-insensitively, as net/http
// compares these names and values; bytes.EqualFold would also fold the
// Kelvin sign to a k.
func fieldIs(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if lower(b[i]) != lower(s[i]) {
			return false
		}
	}
	return true
}

func lower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

// hasElement reports whether token is one of v's comma-separated elements,
// ASCII case-insensitively: net/http's reading of Connection.
func hasElement(v []byte, token string) bool {
	for len(v) > 0 {
		elem := v
		if i := bytes.IndexByte(v, ','); i >= 0 {
			elem, v = v[:i], v[i+1:]
		} else {
			v = nil
		}
		if fieldIs(bytes.Trim(elem, " \t"), token) {
			return true
		}
	}
	return false
}

// parseLength reads a Content-Length: decimal digits with no leading zero,
// so that two values are equal exactly when their text is.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 || v[0] == '0' && len(v) > 1 {
		return 0, false
	}
	var n int64
	for _, c := range v {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = 10*n + int64(c-'0')
	}
	return n, true
}

// upstreamBody is a reply's body on its way to the caller: framed by
// readReply — a declared length, chunks, or the connection's end — and
// followed by what becomes of the connection afterwards.
type upstreamBody struct {
	br     *bufio.Reader
	remain int64     // body bytes left under a declared length; -1 for any other framing
	chunks io.Reader // a chunked body's decoder; nil for any other framing
	up     *Upstream
	uc     *upstreamConn // nil once closed
	stop   func() bool   // detaches the connection from the request's context
	keep   bool          // the reply did not say Connection: close
	eof    bool          // the body was read to its end: the connection is clean
}

var errBodyClosed = errors.New("hop: read on a closed upstream body")

func (b *upstreamBody) Read(p []byte) (n int, err error) {
	switch {
	case b.uc == nil:
		return 0, errBodyClosed
	case b.eof:
		return 0, io.EOF
	case b.chunks != nil:
		if n, err = b.chunks.Read(p); err == io.EOF {
			err = endChunks(b.br)
		}
	case b.remain >= 0:
		n, err = b.br.Read(p[:min(int64(len(p)), b.remain)])
		if b.remain -= int64(n); b.remain == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	default:
		n, err = b.br.Read(p)
	}
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// endChunks reads what follows a chunked body's last chunk: the empty line
// of a reply with no trailer, or the reply is refused. A body counts as ended
// only once it is read; left unread, the next reply would begin with it.
func endChunks(br *bufio.Reader) error {
	crlf, err := br.Peek(2)
	switch {
	case err == nil && crlf[0] == '\r' && crlf[1] == '\n':
		br.Discard(2)
		return io.EOF
	case err == io.EOF:
		return io.ErrUnexpectedEOF
	case err != nil:
		return err
	}
	return errReplyTrailer
}

// Close does not read the rest of the body: a live feed has no end.
func (b *upstreamBody) Close() error {
	uc := b.uc
	if uc == nil {
		return nil
	}
	b.uc = nil
	// stop reporting false means ctx ended and abort is closing uc right now.
	if b.stop() && b.eof && b.keep {
		b.up.put(uc)
		return nil
	}
	return uc.Close()
}
