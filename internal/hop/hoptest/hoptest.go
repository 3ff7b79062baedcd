// Package hoptest serves a handler through hop.Server for tests: on a loopback
// port, the way httptest.Server serves it through net/http's server (URL,
// Close, and Listener for a test that wraps it before Start), or with no socket
// on Pipes, an in-memory network that hop.Upstream dials through its seam.
package hoptest

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"

	"desyncpfair/internal/hop"
)

// Server is a hop.Server listening on 127.0.0.1.
type Server struct {
	URL      string       // http://127.0.0.1:port, set by Start
	Listener net.Listener // replaceable before Start

	srv   *hop.Server
	mu    sync.Mutex
	conns []net.Conn    // every connection accepted, for CloseClientConnections
	done  chan struct{} // closed when Serve has returned
}

// NewServer starts a server for h.
func NewServer(h http.Handler) *Server {
	s := NewUnstartedServer(h)
	s.Start()
	return s
}

// NewUnstartedServer listens but does not serve until Start.
func NewUnstartedServer(h http.Handler) *Server {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic("hoptest: " + err.Error())
	}
	return &Server{Listener: ln, srv: &hop.Server{Handler: h}}
}

// Start serves on Listener.
func (s *Server) Start() {
	s.URL = "http://" + s.Listener.Addr().String()
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		s.srv.Serve(trackingListener{s.Listener, s})
	}()
}

// Close shuts the server down as httptest.Server.Close does: it stops
// accepting, closes idle connections, and waits for active requests.
func (s *Server) Close() {
	s.srv.Shutdown(context.Background())
	<-s.done
}

// CloseClientConnections closes every connection the server accepted.
func (s *Server) CloseClientConnections() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

type trackingListener struct {
	net.Listener
	s *Server
}

func (l trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.s.mu.Lock()
		l.s.conns = append(l.s.conns, c)
		l.s.mu.Unlock()
	}
	return c, err
}

// Pipes is an in-memory network: Listen claims an address and Dial reaches
// the listener there over a net.Pipe — no socket, no port and no kernel
// buffer, so a write returns only once the peer has read all of it. Dial is a
// hop.DialFunc. The zero value is ready to use.
type Pipes struct {
	at sync.Map // address → *pipeListener
}

// Listen returns the listener for addr, replacing any earlier one.
func (p *Pipes) Listen(addr string) net.Listener {
	l := &pipeListener{addr: &net.UnixAddr{Name: addr, Net: "pipe"}, conns: make(chan net.Conn), closed: make(chan struct{})}
	p.at.Store(addr, l)
	return l
}

// Dial hands the listener at addr one end of a new pipe and returns the
// other. With no listener there, or a closed one, the dial is refused.
func (p *Pipes) Dial(ctx context.Context, addr string) (net.Conn, error) {
	l, ok := p.at.Load(addr)
	if !ok {
		return nil, fmt.Errorf("hoptest: dial %s: nothing listens there", addr)
	}
	client, server := net.Pipe()
	select {
	case l.(*pipeListener).conns <- server:
		return client, nil
	case <-l.(*pipeListener).closed:
		return nil, fmt.Errorf("hoptest: dial %s: %w", addr, net.ErrClosed)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeListener struct {
	addr   net.Addr
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return l.addr }
