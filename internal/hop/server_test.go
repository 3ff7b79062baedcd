package hop

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// serve starts a Server for h on a loopback port and returns its address.
func serve(t *testing.T, h http.HandlerFunc) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

// open sends one request on a new connection and returns the connection with
// the reply's head read.
func open(t *testing.T, addr, path string) (net.Conn, *http.Response) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := io.WriteString(c, "GET "+path+" HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return c, resp
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: not within 5s", what)
	}
}

// TestServerStreamClientGoneEndsHandler: once a reply has been flushed, the
// client closing its connection ends the request's context, so a follow
// stream waiting on it returns. A reply not yet flushed is not watched: its
// handler runs to its end with the context alive.
func TestServerStreamClientGoneEndsHandler(t *testing.T) {
	ended := make(chan struct{})
	buffered := make(chan error, 1)
	inBuffered, proceed := make(chan struct{}), make(chan struct{})
	_, addr := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/buffered" {
			w.WriteHeader(http.StatusOK) // written, not flushed
			close(inBuffered)
			<-proceed
			buffered <- r.Context().Err()
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		close(ended)
	})

	c, resp := open(t, addr, "/follow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the stream opened with %d", resp.StatusCode)
	}
	c.Close()
	waitClosed(t, ended, "the stream's handler returning after its client closed")

	c2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(c2, "GET /buffered HTTP/1.1\r\nHost: x\r\n\r\n")
	waitClosed(t, inBuffered, "the buffered request reaching its handler")
	c2.Close()
	time.Sleep(50 * time.Millisecond) // a window for the close to reach the server, and to be ignored
	close(proceed)
	if err := <-buffered; err != nil {
		t.Errorf("a buffered request's context ended (%v) when its client left: only flushed replies are watched", err)
	}
}

// TestServerShutdownClosesIdleWaitsForActive: Shutdown closes a connection
// waiting between requests at once, lets the one mid-request finish its reply
// (telling it Connection: close), and returns when that one is done.
func TestServerShutdownClosesIdleWaitsForActive(t *testing.T) {
	release := make(chan struct{})
	inSlow := make(chan struct{})
	srv, addr := serve(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(inSlow)
			<-release
		}
		io.WriteString(w, "done\n")
	})

	idle, resp := open(t, addr, "/fast")
	io.Copy(io.Discard, resp.Body)
	active, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	io.WriteString(active, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	waitClosed(t, inSlow, "the slow request reaching its handler")

	shut := make(chan error, 1)
	go func() { shut <- srv.Shutdown(context.Background()) }()

	idleGone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, idle) // returns at the server's close
		close(idleGone)
	}()
	waitClosed(t, idleGone, "Shutdown closing the idle connection")
	select {
	case err := <-shut:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	resp, err = http.ReadResponse(bufio.NewReader(active), nil)
	if err != nil {
		t.Fatalf("the in-flight request got no reply: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "done\n" || !resp.Close {
		t.Errorf("in-flight reply %q, Connection: close %v; want its body and close", body, resp.Close)
	}
	select {
	case err := <-shut:
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after the last request finished")
	}
}

// TestServerStallSeversStream: a stream whose client stops reading fails its
// writes on the write deadline the handler set through
// http.ResponseController, so the handler returns instead of blocking forever.
func TestServerStallSeversStream(t *testing.T) {
	severed := make(chan error, 1)
	_, addr := serve(t, func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		frame := strings.Repeat("x", 32<<10) + "\n"
		for {
			rc.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
			if _, err := io.WriteString(w, frame); err != nil {
				severed <- err
				return
			}
			if err := rc.Flush(); err != nil {
				severed <- err
				return
			}
		}
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	io.WriteString(c, "GET /stream HTTP/1.1\r\nHost: x\r\n\r\n") // and never read
	select {
	case err := <-severed:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("the stalled stream ended with %v, want the write deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a stream whose client stopped reading was never severed")
	}
}

// TestReplyFraming: a reply the handler finishes without flushing goes out
// whole with a Content-Length, up to the buffer's size; a larger one, or one
// flushed, goes chunked; HEAD, 204 and 304 carry no body; Content-Type is
// sniffed and Date set when the handler leaves them out.
func TestReplyFraming(t *testing.T) {
	big := strings.Repeat("x", replyBufSize+1)
	srv := &Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/small":
			io.WriteString(w, "<html>hi</html>")
		case "/metrics-sized":
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, strings.Repeat("m", 19<<10))
		case "/big":
			io.WriteString(w, big)
		case "/flushed":
			io.WriteString(w, "a")
			w.(http.Flusher).Flush()
			io.WriteString(w, "b")
		case "/204":
			w.WriteHeader(http.StatusNoContent)
		case "/304":
			w.Header().Set("Content-Type", "text/plain")
			w.WriteHeader(http.StatusNotModified)
		case "/late-header":
			w.WriteHeader(http.StatusAccepted)
			w.Header().Set("X-Late", "1") // after WriteHeader: not sent
			io.WriteString(w, "{}\n")
		}
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)
	for _, tc := range []struct {
		method, path string
		status       int
		length       int64
		chunked      bool
		contentType  string
		body         string
	}{
		{"GET", "/small", 200, 15, false, "text/html; charset=utf-8", "<html>hi</html>"},
		{"GET", "/metrics-sized", 200, 19 << 10, false, "text/plain", strings.Repeat("m", 19<<10)},
		{"GET", "/big", 200, -1, true, "text/plain; charset=utf-8", big},
		{"GET", "/flushed", 200, -1, true, "text/plain; charset=utf-8", "ab"},
		{"HEAD", "/small", 200, 15, false, "", ""},
		{"GET", "/204", 204, 0, false, "", ""},
		{"GET", "/304", 304, 0, false, "", ""},
		{"POST", "/late-header", 202, 3, false, "text/plain; charset=utf-8", "{}\n"},
	} {
		fmt.Fprintf(c, "%s %s HTTP/1.1\r\nHost: x\r\n\r\n", tc.method, tc.path)
		resp, err := http.ReadResponse(br, &http.Request{Method: tc.method})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: reading the body: %v", tc.method, tc.path, err)
		}
		chunked := len(resp.TransferEncoding) > 0 && resp.TransferEncoding[0] == "chunked"
		if resp.StatusCode != tc.status || resp.ContentLength != tc.length || chunked != tc.chunked ||
			resp.Header.Get("Content-Type") != tc.contentType || string(body) != tc.body ||
			resp.Header.Get("Date") == "" || resp.Header.Get("X-Late") != "" || resp.Close {
			t.Errorf("%s %s: %d, length %d, chunked %v, type %q, %d body bytes, Date %q, X-Late %q, close %v; want %d, %d, %v, %q, %d, a Date, none, false",
				tc.method, tc.path, resp.StatusCode, resp.ContentLength, chunked, resp.Header.Get("Content-Type"), len(body),
				resp.Header.Get("Date"), resp.Header.Get("X-Late"), resp.Close, tc.status, tc.length, tc.chunked, tc.contentType, len(tc.body))
		}
	}
}

// TestServerDrainsUnreadBody: a request body the handler left unread is read
// and dropped, up to maxDrainBytes, so the connection carries the next
// request; past that the reply says Connection: close and the connection
// ends.
func TestServerDrainsUnreadBody(t *testing.T) {
	_, addr := serve(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ignored\n")
	})
	for _, tc := range []struct {
		size  int
		close bool
	}{{4 << 10, false}, {maxDrainBytes, false}, {maxDrainBytes + 1, true}} {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			fmt.Fprintf(c, "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", tc.size, strings.Repeat("b", tc.size))
			io.WriteString(c, "GET /b HTTP/1.1\r\nHost: x\r\n\r\n")
		}()
		br := bufio.NewReader(c)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%d unread bytes: %v", tc.size, err)
		}
		io.Copy(io.Discard, resp.Body)
		if resp.Close != tc.close {
			t.Errorf("%d unread bytes: Connection: close %v, want %v", tc.size, resp.Close, tc.close)
		}
		_, err = http.ReadResponse(br, nil)
		if served := err == nil; served == tc.close {
			t.Errorf("%d unread bytes: the next request served %v (%v), want %v", tc.size, served, err, !tc.close)
		}
		c.Close()
	}
}
