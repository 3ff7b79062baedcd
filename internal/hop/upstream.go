// Package hop is the repository's one HTTP/1.1 path, both directions. Outbound,
// pfair-router's calls to its backends, a follower's calls to its leader and
// internal/client's calls to pfaird go through an Upstream; inbound, pfaird
// and pfair-router serve their handlers through a Server. It imports only the
// standard library and internal/wire.
package hop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
// one Write, the reply read by http.ReadResponse. It is what net/http's
// Transport did at a third of the cost: no read-loop and write-loop
// goroutines, no channel hand-offs, no parsed URL and cloned request per call.
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
	br  *bufio.Reader
	req http.Request // Method only: what http.ReadResponse needs to frame a HEAD reply

	// The pre-reuse peek (see usable), its closure built once per connection.
	raw  syscall.RawConn
	peek func(fd uintptr) bool
	quit bool // the peek found bytes, the peer's close, or an error
	// abort closes the connection; the method value is bound once so that
	// context.AfterFunc gets it without an allocation per request.
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
		stop := context.AfterFunc(ctx, uc.abort)
		n, err := uc.Write(buf.B)
		if err == nil {
			var resp *http.Response
			uc.req.Method = method
			if resp, err = http.ReadResponse(uc.br, &uc.req); err == nil {
				resp.Body = &upstreamBody{src: resp.Body, up: u, uc: uc, stop: stop,
					keep: !resp.Close, eof: resp.Body == http.NoBody}
				return resp, nil
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

// upstreamBody is a reply's body on its way to the caller. The framing —
// declared length, chunks, none — is net/http's reader underneath; this adds
// only what becomes of the connection afterwards.
type upstreamBody struct {
	src  io.Reader
	up   *Upstream
	uc   *upstreamConn // nil once closed
	stop func() bool   // detaches the connection from the request's context
	keep bool          // the reply did not say Connection: close
	eof  bool          // src was read to its end: the connection is clean
}

var errBodyClosed = errors.New("hop: read on a closed upstream body")

func (b *upstreamBody) Read(p []byte) (int, error) {
	if b.uc == nil {
		return 0, errBodyClosed
	}
	n, err := b.src.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

// Close does not close src: net/http's body would read a response to its end
// first, and a live feed has none.
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
