// Package hoptest serves a handler through hop.Server on a loopback port for
// tests, the way httptest.Server serves it through net/http's server: URL,
// Close, Client, and Listener for a test that wraps it before Start.
package hoptest

import (
	"context"
	"net"
	"net/http"
	"sync"

	"desyncpfair/internal/hop"
)

// Server is a hop.Server listening on 127.0.0.1.
type Server struct {
	URL      string       // http://127.0.0.1:port, set by Start
	Listener net.Listener // replaceable before Start

	srv    *hop.Server
	mu     sync.Mutex
	conns  []net.Conn // every connection accepted, for CloseClientConnections
	client *http.Client
	done   chan struct{} // closed when Serve has returned
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
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
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

// Client returns an http.Client whose idle connections Close closes.
func (s *Server) Client() *http.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.client == nil {
		s.client = &http.Client{Transport: &http.Transport{}}
	}
	return s.client
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
