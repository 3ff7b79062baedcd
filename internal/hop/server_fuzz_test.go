package hop

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// echo records what its handler saw of every request, and answers each one.
type echo struct {
	mu   sync.Mutex
	seen []string
}

func (e *echo) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	e.mu.Lock()
	e.seen = append(e.seen, fmt.Sprintf("%s path=%q query=%q host=%q header=%v length=%d te=%q close=%v body=%q bodyErr=%v",
		r.Method, r.URL.Path, r.URL.RawQuery, r.Host, r.Header, r.ContentLength, r.TransferEncoding, r.Close, body, err != nil))
	e.mu.Unlock()
	io.WriteString(w, "ok\n")
}

func (e *echo) take() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	seen := e.seen
	e.seen = nil
	return seen
}

// exchange writes raw to addr, half-closes, and returns the class of every
// status line that came back (100 Continue included) once the server has
// closed the connection.
func exchange(t *testing.T, addr string, raw []byte) string {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	go func() {
		c.Write(raw) // a server that refuses may close before it has all of it
		c.(*net.TCPConn).CloseWrite()
	}()
	out, err := io.ReadAll(c)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("%s never closed the connection; it answered %q", addr, out)
	}
	// Every reply the echo handler writes is "ok\n" and every refusal's body
	// is a status text, so a line that starts a status line is one.
	var classes strings.Builder
	for _, line := range bytes.Split(out, []byte("\r\n")) {
		if len(line) >= 12 && bytes.HasPrefix(line, []byte("HTTP/1.")) && line[8] == ' ' {
			classes.WriteByte(line[9])
		}
	}
	return classes.String()
}

// FuzzServerMatchesNetHTTP is the inbound half's contract: fed the same bytes,
// net/http's server and Server refuse the same requests with the same class
// of status, and for each request they accept their handlers see the same
// method, path, query, Host, headers, length, transfer encoding, Close and
// body.
func FuzzServerMatchesNetHTTP(f *testing.F) {
	for _, seed := range []string{
		"POST /v1/tenants/t/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 23\r\n\r\n{\"task\":\"a\",\"key\":\"k1\"}",
		"POST /a HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /a HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\nhello",
		"POST /a HTTP/1.1\r\nHost: x\r\nExpect: something-else\r\nContent-Length: 5\r\n\r\nhello",
		"HEAD /a HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\nGET /b HTTP/1.0\r\n\r\n",
		"GET /a HTTP/1.0\r\n\r\nGET /b HTTP/1.0\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\n\r\nPOST /b?c=d HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nhi",
		"GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\n",
		"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		"GET /a HTTP/1.1\r\nHost: x\r\nX-A: 1\r\n 2\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\nX-A: a\x00b\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", 1<<20+8192) + "\r\n\r\n",
		"GET /v1/tenants/a%2Fb HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/tenants/a b HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /v1/tenants/é HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a HTTP/1.1\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost:\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: a b\r\n\r\n",
		"GET http://h/a HTTP/1.1\r\n\r\n",
		"GET http://h/a HTTP/1.1\r\nHost: y\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET /a HTTP/2.0\r\nHost: x\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	std, ours := &echo{}, &echo{}
	ref := httptest.NewServer(std)
	f.Cleanup(ref.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	srv := &Server{Handler: ours}
	go srv.Serve(ln)
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, raw []byte) {
		wantClasses := exchange(t, ref.Listener.Addr().String(), raw)
		gotClasses := exchange(t, ln.Addr().String(), raw)
		want, got := std.take(), ours.take()
		if gotClasses != wantClasses {
			t.Errorf("status classes %q, net/http's %q", gotClasses, wantClasses)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("the handler saw\n  %q\nbehind net/http's server it saw\n  %q", got, want)
		}
	})
}
