package hop

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/textproto"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The inbound half's limits. Each is net/http's server's value, and one value
// of each is in use, so they are constants and not options.
const (
	// maxHeadBytes bounds what a request head may read off the connection:
	// http.DefaultMaxHeaderBytes plus net/http's 4 KB of slack. A head that
	// needs more is answered 431.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4096
	// replyBufSize bounds the buffer a reply is written into. A reply that
	// fits — /metrics at ≈ 19 KB among them — goes out whole under a
	// Content-Length; one that outgrows it goes out chunked, a buffer a time.
	replyBufSize = 64 << 10
	// maxDrainBytes is how much unread request body is read and dropped to
	// keep a connection; a request that left more closes it.
	maxDrainBytes = 256 << 10
	// closeLinger is how long a connection closed on a client still writing
	// stays half-open, so the reply is read before the client's stack sees a
	// reset (net/http's rstAvoidanceDelay).
	closeLinger = 500 * time.Millisecond
	// newConnGrace is how long Shutdown leaves a connection that has not yet
	// sent its first request: it may be on its way.
	newConnGrace = 5 * time.Second
)

// WholeReply is the longest body a Server sends whole, under a Content-Length
// it writes itself, when the handler writes all of it before returning, never
// flushes, and sets a head under half the reply buffer: a proxy copying a
// body of declared length need declare the length only above it.
const WholeReply = replyBufSize / 2

// Server serves an http.Handler over HTTP/1.1 (and 1.0), one goroutine per
// connection and nothing else: each request is read by http.ReadRequest on the
// connection's goroutine, handled there, and its reply written from one
// buffer. It is what net/http's Server did for pfaird and the router, less
// what neither used — a background read goroutine and a cancelable context
// per request, the header snapshot, the two buffers between a handler and the
// socket — and less what neither serves: TLS, HTTP/2, timeouts, Hijack.
//
// The request context ends when the handler returns, or, once the reply has
// been flushed, when the client's connection does. A handler that never
// flushes runs to completion whether or not its client is still there.
type Server struct {
	Handler http.Handler

	inShutdown atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
}

// Serve accepts connections on ln until it fails or the server is shut down,
// when it returns http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	if !s.track(func() { mapSet(&s.listeners, ln) }) {
		return http.ErrServerClosed
	}
	defer s.track(func() { delete(s.listeners, ln) })
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.inShutdown.Load() {
				return http.ErrServerClosed
			}
			// net/http's rule: back off on a temporary failure (EMFILE).
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		c := &serverConn{srv: s, rwc: rwc, accepted: time.Now()}
		if !s.track(func() { mapSet(&s.conns, c) }) {
			rwc.Close()
			return http.ErrServerClosed
		}
		go c.serve()
	}
}

func mapSet[K comparable](m *map[K]struct{}, k K) {
	if *m == nil {
		*m = make(map[K]struct{})
	}
	(*m)[k] = struct{}{}
}

// track runs f under the server's lock unless the server is shutting down.
func (s *Server) track(f func()) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inShutdown.Load() {
		return false
	}
	f()
	return true
}

func (s *Server) forget(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Shutdown stops accepting, closes idle connections, and waits for the active
// ones to finish their reply and close, or for ctx to end.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.stop()
	wait := time.Millisecond
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			wait = min(2*wait, 500*time.Millisecond)
			timer.Reset(wait)
		}
	}
	return err
}

// Close stops accepting and closes every connection, active or not.
func (s *Server) Close() error {
	err := s.stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.rwc.Close()
	}
	return err
}

// stop marks the server shut down and closes its listeners.
func (s *Server) stop() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inShutdown.Store(true)
	var err error
	for ln := range s.listeners {
		if cerr := ln.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	clear(s.listeners)
	return err
}

// closeIdle closes the connections waiting for a request, and reports whether
// none is left busy.
func (s *Server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	quiet := true
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) ||
			time.Since(c.accepted) > newConnGrace && c.state.CompareAndSwap(connNew, connClosed) {
			c.rwc.Close()
			delete(s.conns, c)
			continue
		}
		quiet = false
	}
	return quiet
}

// A connection's state. Only Shutdown moves one to connClosed, and only from
// connNew or connIdle, so a request that has begun is always answered.
const (
	connNew    int32 = iota // accepted, no request yet
	connIdle                // between requests
	connActive              // a request's first byte was read
	connClosed              // closed by Shutdown while not active
)

// serverConn is one accepted connection and the state its requests share.
type serverConn struct {
	srv        *Server
	rwc        net.Conn
	accepted   time.Time
	state      atomic.Int32
	remoteAddr string

	in         headReader
	br         *bufio.Reader
	lastMethod string
	head       []byte   // the current request's head as read; see sentHeader
	keys       []string // scratch for sorting a reply's header keys

	// watched is closed when the current request's watcher has returned; nil
	// while none runs.
	watched chan struct{}
}

// headReader is the connection as its bufio.Reader sees it: reads are cut off
// once a head has taken maxHeadBytes, and copied to rec while a head is read.
type headReader struct {
	c      net.Conn
	remain int64
	rec    *[]byte
}

func (r *headReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.c.Read(p)
	r.remain -= int64(n)
	if r.rec != nil {
		*r.rec = append(*r.rec, p[:n]...)
	}
	return n, err
}

func (c *serverConn) serve() {
	defer c.srv.forget(c)
	defer c.rwc.Close()
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			buf := make([]byte, 64<<10)
			log.Printf("http: panic serving %v: %v\n%s", c.remoteAddr, v, buf[:runtime.Stack(buf, false)])
		}
	}()
	c.remoteAddr = c.rwc.RemoteAddr().String()
	c.in.c = c.rwc
	c.br = bufio.NewReader(&c.in)
	for {
		c.in.remain = maxHeadBytes
		if _, err := c.br.Peek(1); err != nil {
			return
		}
		if !c.state.CompareAndSwap(connIdle, connActive) && !c.state.CompareAndSwap(connNew, connActive) {
			return // Shutdown closed it first
		}
		req, err := c.readRequest()
		if err != nil {
			c.refuse(err)
			return
		}
		if !c.handle(req) || c.srv.inShutdown.Load() {
			return
		}
		c.state.Store(connIdle)
	}
}

var errHeadTooLarge = errors.New("hop: request head too large")

// statusError is a request refused after it parsed.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return http.StatusText(e.code) + ": " + e.text }

// readRequest reads one request with http.ReadRequest and makes the checks
// net/http's server makes after it.
func (c *serverConn) readRequest() (*http.Request, error) {
	if c.lastMethod == http.MethodPost {
		// RFC 7230 section 3: tolerate the CRLF old clients send after a body.
		peek, _ := c.br.Peek(4)
		c.br.Discard(numLeadingCRorLF(peek))
	}
	buffered, _ := c.br.Peek(c.br.Buffered())
	c.head = append(c.head[:0], buffered...)
	c.in.rec = &c.head
	req, err := http.ReadRequest(c.br)
	c.in.rec = nil
	if err != nil {
		if c.in.remain <= 0 {
			return nil, errHeadTooLarge
		}
		return nil, err
	}
	c.in.remain = math.MaxInt64

	// ReadRequest drops the Host header. When req.Host came from it, it is
	// the header; otherwise (none, empty, an absolute target) the head is
	// read again for it.
	host, hosts, h2 := req.Host, 1, false
	if req.Host == "" || req.URL.Host != "" || req.ProtoMajor != 1 {
		h := c.sentHeader()
		host, hosts = h.Get("Host"), len(h["Host"])
		h2 = req.Method == "PRI" && len(h) == 0 && req.URL.Path == "*" && req.Proto == "HTTP/2.0"
	}
	if cap(c.head) > 16<<10 { // a long head: do not keep its copy for the connection's life
		c.head = nil
	}
	if req.ProtoMajor != 1 && !h2 {
		return nil, statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	c.lastMethod = req.Method
	if req.ProtoAtLeast(1, 1) && hosts == 0 && !h2 && req.Method != http.MethodConnect {
		return nil, statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if hosts == 1 && !validHost(host) {
		return nil, statusError{http.StatusBadRequest, "malformed Host header"}
	}
	for k, vv := range req.Header {
		if !validFieldName(k) {
			return nil, statusError{http.StatusBadRequest, "invalid header name"}
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return nil, statusError{http.StatusBadRequest, "invalid header value"}
			}
		}
	}
	req.RemoteAddr = c.remoteAddr
	return req, nil
}

// sentHeader parses the current request's head again, as ReadRequest did
// before it dropped Host.
func (c *serverConn) sentHeader() textproto.MIMEHeader {
	tp := textproto.NewReader(bufio.NewReader(bytes.NewReader(c.head)))
	if _, err := tp.ReadLine(); err != nil {
		return nil
	}
	h, _ := tp.ReadMIMEHeader()
	return h
}

// refuse answers a request that did not parse, byte for byte as net/http's
// server does, and leaves the connection to be closed.
func (c *serverConn) refuse(err error) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var se statusError
	switch {
	case err == errHeadTooLarge:
		const e = "431 Request Header Fields Too Large"
		io.WriteString(c.rwc, "HTTP/1.1 "+e+errorHeaders+e)
		c.closeWriteAndWait()
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		// RFC 7230 section 3.3.1; net/http's error type for it is unexported.
		io.WriteString(c.rwc, "HTTP/1.1 501 Not Implemented"+errorHeaders+"Unsupported transfer encoding")
	case isCommonNetReadError(err):
	case errors.As(err, &se):
		e := fmt.Sprintf("%d %s", se.code, se.Error())
		io.WriteString(c.rwc, "HTTP/1.1 "+e+errorHeaders+e)
	default:
		const e = "400 Bad Request"
		io.WriteString(c.rwc, "HTTP/1.1 "+e+errorHeaders+e)
	}
}

func isCommonNetReadError(err error) bool {
	if err == io.EOF {
		return true
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return true
	}
	oe, ok := err.(*net.OpError)
	return ok && oe.Op == "read"
}

// closeWriteAndWait half-closes the connection and lingers, for a client that
// may still be writing a request the server will not read.
func (c *serverConn) closeWriteAndWait() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	time.Sleep(closeLinger)
}

// handle runs the handler for req and finishes its reply, and reports whether
// the connection may carry another request.
func (c *serverConn) handle(req *http.Request) bool {
	w := &response{c: c, req: req, header: make(http.Header), status: http.StatusOK, contentLength: -1}
	defer w.ctx.cancel() // a panicking handler's context ends too
	w.body.w = w
	if expect := req.Header.Get("Expect"); hasToken(expect, "100-continue") {
		w.expectContinue = req.ProtoAtLeast(1, 1) && req.ContentLength != 0
		w.body.sendContinue = w.expectContinue
	} else if expect != "" {
		w.header.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
		w.finish()
		return false
	}
	connection := req.Header.Get("Connection")
	w.wants10KeepAlive = req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(connection, "keep-alive")
	w.wantsClose = req.Close || hasToken(connection, "close")
	if req.Body != http.NoBody {
		w.body.src = req.Body
		req.Body = &w.body
	}
	w.req = req.WithContext(&w.ctx)

	var h http.Handler = c.srv.Handler
	if req.RequestURI == "*" && req.Method == http.MethodOptions {
		h = http.HandlerFunc(serveOptions)
	}
	h.ServeHTTP(w, w.req)
	w.ctx.cancel()
	c.stopWatch()
	w.finish()
	if w.deadlines {
		c.rwc.SetReadDeadline(time.Time{})
		c.rwc.SetWriteDeadline(time.Time{})
	}
	if w.linger {
		c.closeWriteAndWait()
	}
	return !w.closeAfter
}

// serveOptions answers "OPTIONS *", as net/http's server does in front of any
// handler.
func serveOptions(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Length", "0")
	if r.ContentLength != 0 {
		io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, 4<<10))
	}
}

// aLongTimeAgo is a read deadline that fails a pending read at once.
var aLongTimeAgo = time.Unix(1, 0)

// watch ends the request's context when the client's connection dies. It runs
// from the first flush of a reply whose request body has been read, so it
// never races the handler for the connection's reader, and holds the reader
// until stopWatch.
func (w *response) watch() {
	c := w.c
	done := make(chan struct{})
	c.watched = done
	go func() {
		defer close(done)
		// Bytes (a pipelined request) are not a death; neither is stopWatch.
		if _, err := c.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
			w.ctx.cancel()
		}
	}()
}

func (c *serverConn) stopWatch() {
	if c.watched == nil {
		return
	}
	c.rwc.SetReadDeadline(aLongTimeAgo)
	<-c.watched
	c.watched = nil
	c.rwc.SetReadDeadline(time.Time{})
}

// replyBufs recycles reply buffers. Their slack past replyBufSize holds the
// framing inserted before a full buffer's body and the chunk's end after it.
var replyBufs = sync.Pool{New: func() any { b := make([]byte, 0, replyBufSize+1024); return &b }}

// response is the http.ResponseWriter of one request.
type response struct {
	c      *serverConn
	req    *http.Request
	header http.Header
	ctx    requestContext
	body   requestBody

	// buf holds the head — status line and the handler's headers, written
	// at WriteHeader — then the body, until send. headLen is the head's
	// length, 0 once it was sent.
	bufp    *[]byte
	buf     []byte
	headLen int

	status        int
	contentLength int64 // declared by the handler or set at send; -1 if neither
	written       int64 // body bytes the handler wrote
	connection    []string
	hasDate       bool
	sniff         bool // no Content-Type or Content-Encoding: detect one
	wroteHeader   bool
	headSent      bool
	chunked       bool
	err           error // the connection's first write error, returned from then on

	expectContinue   bool
	wants10KeepAlive bool
	wantsClose       bool
	closeAfter       bool
	linger           bool // closing with request body unread: closeWriteAndWait
	deadlines        bool // the handler set a deadline on the connection
}

func (w *response) Header() http.Header { return w.header }

// WriteHeader writes the status line and the handler's headers into the reply
// buffer at once, so later changes to the header map do not reach the client
// (net/http's rule, without its copy of the map). Content-Length, Connection
// and Transfer-Encoding are held back for send, which frames the reply; a
// Transfer-Encoding the handler set is dropped. A 1xx status is ignored.
func (w *response) WriteHeader(code int) {
	if w.wroteHeader {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if code < 200 {
		return // informational replies are not sent: no handler served here makes one
	}
	w.body.sendContinue = false
	h := w.header
	w.wroteHeader, w.status = true, code
	if cl := h.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.contentLength = v
		}
	}
	w.connection = h["Connection"]
	_, w.hasDate = h["Date"]
	_, hasType := h["Content-Type"]
	w.sniff = !hasType && h.Get("Content-Encoding") == ""
	w.bufp = replyBufs.Get().(*[]byte)
	w.buf = appendStatusLine((*w.bufp)[:0], w.req.ProtoAtLeast(1, 1), code)
	w.buf = w.c.appendHeader(w.buf, h, code == http.StatusNotModified)
	w.headLen = len(w.buf)
}

func appendStatusLine(b []byte, is11 bool, code int) []byte {
	if is11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(code), 10)
	if text := http.StatusText(code); text != "" {
		b = append(append(b, ' '), text...)
	} else {
		b = strconv.AppendInt(append(b, " status code "...), int64(code), 10)
	}
	return append(b, "\r\n"...)
}

// appendHeader writes h as header lines in key order, as Header.Write would:
// keys that are not tokens are skipped, and line breaks in a value become
// spaces. The framing headers are left to send.
func (c *serverConn) appendHeader(b []byte, h http.Header, notModified bool) []byte {
	keys := c.keys[:0]
	for k := range h {
		switch k {
		case "Content-Length", "Transfer-Encoding", "Connection":
			continue
		case "Content-Type":
			if notModified {
				continue
			}
		}
		if validFieldName(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			b = appendField(b, k, v)
		}
	}
	clear(keys)
	c.keys = keys[:0]
	return b
}

func appendField(b []byte, k, v string) []byte {
	b = append(append(b, k...), ": "...)
	// textproto.TrimString after CR and LF became spaces.
	v = strings.Trim(v, " \t\r\n")
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\r' || c == '\n' {
			b = append(b, ' ')
		} else {
			b = append(b, c)
		}
	}
	return append(b, "\r\n"...)
}

func (w *response) Write(p []byte) (int, error)       { return write(w, p) }
func (w *response) WriteString(s string) (int, error) { return write(w, s) }

func write[T []byte | string](w *response, p T) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	w.written += int64(len(p))
	if w.contentLength != -1 && w.written > w.contentLength {
		return 0, http.ErrContentLength
	}
	if w.req.Method == http.MethodHead {
		return len(p), nil
	}
	if w.err != nil {
		return 0, w.err
	}
	for rest := p; len(rest) > 0; {
		if len(w.buf) >= replyBufSize {
			if err := w.send(false); err != nil {
				return len(p) - len(rest), err
			}
		}
		n := min(replyBufSize-len(w.buf), len(rest))
		w.buf = append(w.buf, rest[:n]...)
		rest = rest[n:]
	}
	return len(p), nil
}

func (w *response) Flush() { w.FlushError() }

// FlushError sends what is buffered: the head, and the body so far as a chunk
// (or under the Content-Length the handler declared).
func (w *response) FlushError() error {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	err := w.send(false)
	if err == nil && w.c.watched == nil && (w.body.src == nil || w.body.eof) {
		w.watch()
	}
	return err
}

func (w *response) SetReadDeadline(t time.Time) error {
	w.deadlines = true
	return w.c.rwc.SetReadDeadline(t)
}

func (w *response) SetWriteDeadline(t time.Time) error {
	w.deadlines = true
	return w.c.rwc.SetWriteDeadline(t)
}

// finish ends the reply once the handler has returned: whole, under a
// Content-Length, if nothing was flushed before.
func (w *response) finish() {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	w.send(true)
	*w.bufp = w.buf[:0]
	replyBufs.Put(w.bufp)
	w.bufp, w.buf = nil, nil
	if w.req.Method != http.MethodHead && w.contentLength != -1 && bodyAllowed(w.status) && w.contentLength != w.written {
		w.closeAfter = true // too short: the client would read the next reply as this one's body
	}
	if w.body.closed && !w.body.eof {
		w.closeAfter, w.linger = true, true
	}
}

// send writes the buffer in one Write: on the first call the head, its
// framing and the body so far; later, the body since. final marks the end of
// the reply.
func (w *response) send(final bool) error {
	if w.err != nil {
		return w.err
	}
	var scratch [256]byte
	frame := scratch[:0]
	if !w.headSent {
		frame = w.appendFraming(frame, final)
		w.headSent = true
	}
	n := len(w.buf) - w.headLen
	if w.chunked && n > 0 {
		frame = append(strconv.AppendInt(frame, int64(n), 16), "\r\n"...)
	}
	b := slices.Insert(w.buf, w.headLen, frame...)
	if w.chunked {
		if n > 0 {
			b = append(b, "\r\n"...)
		}
		if final {
			b = append(b, "0\r\n\r\n"...)
		}
	}
	var err error
	if len(b) > 0 {
		if _, err = w.c.rwc.Write(b); err != nil {
			w.err, w.closeAfter = err, true
		}
	}
	w.buf, w.headLen = b[:0], 0
	return err
}

// appendFraming decides how the reply is framed and whether the connection
// stays open — net/http's rules — and appends the headers that say so.
func (w *response) appendFraming(b []byte, final bool) []byte {
	req := w.req
	isHEAD := req.Method == http.MethodHead
	bodyOK := bodyAllowed(w.status)
	is11 := req.ProtoAtLeast(1, 1)
	if final && bodyOK && w.contentLength == -1 && (!isHEAD || w.written > 0) {
		w.contentLength = w.written
	}
	connection := w.connection
	if w.wants10KeepAlive && (isHEAD || w.contentLength != -1 || !bodyOK) {
		if connection == nil {
			connection = []string{"keep-alive"}
		}
	} else if !is11 || w.wantsClose {
		w.closeAfter = true
	}
	if len(connection) > 0 && connection[0] == "close" || w.c.srv.inShutdown.Load() {
		w.closeAfter = true
	}
	if w.expectContinue && !w.body.eof {
		w.closeAfter = true // the body was never asked for: what follows on the wire is unknown
	}
	if req.ContentLength != 0 && !w.closeAfter {
		w.drainBody()
	}
	var contentType string
	if n := len(w.buf) - w.headLen; bodyOK && w.sniff && n > 0 {
		contentType = http.DetectContentType(w.buf[w.headLen:][:min(n, 512)])
	}
	switch {
	case isHEAD || !bodyOK:
	case w.contentLength != -1:
	case is11:
		w.chunked = true
	default:
		w.closeAfter = true // an HTTP/1.0 body of unknown length ends with the connection
	}
	if w.closeAfter && (w.c.srv.inShutdown.Load() || len(connection) == 0 || !hasToken(connection[0], "close")) {
		connection = nil
		if is11 {
			connection = []string{"close"}
		}
	}

	if bodyOK && w.contentLength != -1 {
		b = strconv.AppendInt(append(b, "Content-Length: "...), w.contentLength, 10)
		b = append(b, "\r\n"...)
	}
	if contentType != "" {
		b = appendField(b, "Content-Type", contentType)
	}
	for _, v := range connection {
		b = appendField(b, "Connection", v)
	}
	if w.chunked {
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	}
	if !w.hasDate {
		b = time.Now().UTC().AppendFormat(append(b, "Date: "...), http.TimeFormat)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// drainBody reads what the handler left of the request body, up to
// maxDrainBytes, so the connection can carry the next request.
func (w *response) drainBody() {
	body := &w.body
	switch {
	case body.src == nil || body.eof:
	case body.closed:
		w.closeAfter = true
	default:
		switch _, err := io.CopyN(io.Discard, body.src, maxDrainBytes+1); err {
		case io.EOF:
			body.eof = true
		case nil:
			w.closeAfter, w.linger = true, true
		default:
			w.closeAfter = true
		}
	}
}

func bodyAllowed(status int) bool {
	return status != http.StatusNoContent && status != http.StatusNotModified
}

// requestBody is the request body a handler reads: http.ReadRequest's, plus
// what the server needs to know of it — whether it was read to its end or
// closed — and the 100 Continue a client that asked for one gets on the first
// read. Close does not close src, which would read the rest of the body.
type requestBody struct {
	w            *response
	src          io.ReadCloser
	sendContinue bool
	eof, closed  bool
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.sendContinue {
		b.sendContinue = false
		if _, err := io.WriteString(b.w.c.rwc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	n, err := b.src.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *requestBody) Close() error {
	b.closed = true
	return nil
}

// requestContext is a request's context: no deadline, no values, and done once
// the handler has returned or the watcher found the client gone. It is its
// own type, not a context.WithCancel per request, and its AfterFunc method is
// what lets context.AfterFunc and contexts derived from it register without a
// goroutine.
type requestContext struct {
	mu    sync.Mutex
	done  chan struct{}
	err   error
	after []*func()
}

var closedDone = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func (x *requestContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *requestContext) Value(any) any               { return nil }

func (x *requestContext) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		if x.err != nil {
			return closedDone
		}
		x.done = make(chan struct{})
	}
	return x.done
}

func (x *requestContext) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// AfterFunc runs f in its own goroutine once the context is done; stop
// unregisters it, and reports whether it did so before f was started.
func (x *requestContext) AfterFunc(f func()) (stop func() bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		go f()
		return func() bool { return false }
	}
	p := &f
	x.after = append(x.after, p)
	return func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		i := slices.Index(x.after, p)
		if i < 0 {
			return false
		}
		x.after = slices.Delete(x.after, i, i+1)
		return true
	}
}

func (x *requestContext) cancel() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		return
	}
	x.err = context.Canceled
	if x.done != nil {
		close(x.done)
	}
	for _, f := range x.after {
		go (*f)()
	}
	x.after = nil
}

// hasToken reports whether token is one of v's comma- or space-separated
// elements, ASCII case-insensitively (net/http's rule for Connection and
// Expect).
func hasToken(v, token string) bool {
	for sp := 0; sp+len(token) <= len(v); sp++ {
		end := sp + len(token)
		if (sp == 0 || isTokenBoundary(v[sp-1])) && (end == len(v) || isTokenBoundary(v[end])) &&
			strings.EqualFold(v[sp:end], token) {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

func numLeadingCRorLF(v []byte) int {
	n := 0
	for _, b := range v {
		if b != '\r' && b != '\n' {
			break
		}
		n++
	}
	return n
}

// validFieldName, validFieldValue and validHost are httpguts' checks, which
// net/http's server makes on every request; the first two are also what
// net/textproto allows in a reply's header line.
func validFieldName[T string | []byte](k T) bool {
	if len(k) == 0 {
		return false
	}
	for i := 0; i < len(k); i++ {
		if c := k[i]; !isAlnum(c) && strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return true
}

func validFieldValue[T string | []byte](v T) bool {
	for i := 0; i < len(v); i++ {
		if c := v[i]; (c < ' ' && c != '\t') || c == 0x7f {
			return false
		}
	}
	return true
}

func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if c := h[i]; !isAlnum(c) && strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) < 0 {
			return false
		}
	}
	return true
}

func isAlnum(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
