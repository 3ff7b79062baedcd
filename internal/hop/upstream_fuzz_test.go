package hop

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"
)

// replyShapes are the replies a Server writes, one request of each shape. A
// shape whose reply leaves the connection open is followed by a second
// request of the same method, as on a pooled connection.
var replyShapes = []struct {
	name, request string
}{
	{"content-length", "GET /json HTTP/1.1\r\nHost: x\r\n\r\n"},
	{"flushed-feed", "GET /feed HTTP/1.1\r\nHost: x\r\n\r\n"},
	{"head", "HEAD /json HTTP/1.1\r\nHost: x\r\n\r\n"},
	{"204", "DELETE /empty HTTP/1.1\r\nHost: x\r\n\r\n"},
	{"304", "GET /same HTTP/1.1\r\nHost: x\r\n\r\n"},
	{"retry-after", "POST /busy HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"},
	{"connection-close", "POST /close HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"},
	{"http-1.0", "GET /json HTTP/1.0\r\n\r\n"},
	{"http-1.0-keep-alive", "GET /json HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"},
}

func shapeHandler(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/json":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"at":"0","pending":1}`+"\n")
	case "/feed":
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"seq":0}`+"\n")
		w.(http.Flusher).Flush()
		io.WriteString(w, `{"seq":1}`+"\n")
	case "/empty":
		w.WriteHeader(http.StatusNoContent)
	case "/same":
		w.WriteHeader(http.StatusNotModified)
	case "/busy":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"error":"ring full"}`+"\n")
	case "/close":
		w.Header().Set("Connection", "close")
		io.WriteString(w, `{"m":2}`+"\n")
	}
}

// recorder keeps every byte read off its connection.
type recorder struct {
	net.Conn
	got []byte
}

func (r *recorder) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.got = append(r.got, p[:n]...)
	return n, err
}

// serverReplies returns the bytes a Server sent for each of replyShapes, in
// order. Each request goes out only once the reply before it was read to its
// end, so the bytes are exactly the replies.
func serverReplies(tb testing.TB) [][]byte {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := &Server{Handler: http.HandlerFunc(shapeHandler)}
	go srv.Serve(ln)
	defer srv.Close()
	var out [][]byte
	for _, shape := range replyShapes {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			tb.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		rec := &recorder{Conn: c}
		br := bufio.NewReader(rec)
		method, _, _ := bytes.Cut([]byte(shape.request), []byte(" "))
		io.WriteString(c, shape.request)
		resp, err := http.ReadResponse(br, &http.Request{Method: string(method)})
		if err != nil {
			tb.Fatalf("%s: %v", shape.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		if !resp.Close {
			fmt.Fprintf(c, "%s /json HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", method)
		}
		if _, err := io.Copy(io.Discard, br); err != nil {
			tb.Fatalf("%s: %v", shape.name, err)
		}
		c.Close()
		out = append(out, rec.got)
	}
	return out
}

// matchNetHTTP reads raw as the replies on one connection, with readReply and
// with http.ReadResponse side by side, for requests of method HEAD or GET,
// until readReply refuses a reply or its body, a reply ends the connection,
// or raw ends. Each reply readReply accepts, net/http must read the same:
// status, ContentLength, Close, TransferEncoding, Content-Type, Retry-After
// and body bytes, and both must have consumed the same bytes by its end. It
// returns how many replies readReply accepted and whether it read all of raw.
func matchNetHTTP(t *testing.T, head bool, raw []byte) (replies int, all bool) {
	method := http.MethodGet
	if head {
		method = http.MethodHead
	}
	ourSrc, stdSrc := bytes.NewReader(raw), bytes.NewReader(raw)
	ours, std := bufio.NewReader(ourSrc), bufio.NewReader(stdSrc)
	for ; ; replies++ {
		if ourSrc.Len()+ours.Buffered() == 0 {
			return replies, true
		}
		r := &reply{}
		if readReply(ours, head, r) != nil {
			return replies, false
		}
		r.body.uc = &upstreamConn{} // open: upstreamBody reads only while it has one
		got, err := io.ReadAll(&r.body)
		if err != nil {
			return replies, false
		}
		resp, err := http.ReadResponse(std, &http.Request{Method: method})
		if err != nil {
			t.Fatalf("reply %d: accepted, but http.ReadResponse refuses it: %v", replies, err)
		}
		want, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reply %d: body accepted, but net/http's fails: %v", replies, err)
		}
		g := &r.resp
		if g.StatusCode != resp.StatusCode || g.ContentLength != resp.ContentLength || g.Close != resp.Close ||
			!slices.Equal(g.TransferEncoding, resp.TransferEncoding) ||
			g.Header.Get("Content-Type") != resp.Header.Get("Content-Type") ||
			g.Header.Get("Retry-After") != resp.Header.Get("Retry-After") || !bytes.Equal(got, want) {
			t.Fatalf("reply %d: read as %d, length %d, close %v, coding %q, Content-Type %q, Retry-After %q, body %q;\n"+
				"net/http read %d, length %d, close %v, coding %q, Content-Type %q, Retry-After %q, body %q",
				replies, g.StatusCode, g.ContentLength, g.Close, g.TransferEncoding, g.Header.Get("Content-Type"), g.Header.Get("Retry-After"), got,
				resp.StatusCode, resp.ContentLength, resp.Close, resp.TransferEncoding, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), want)
		}
		if left, stdLeft := ourSrc.Len()+ours.Buffered(), stdSrc.Len()+std.Buffered(); left != stdLeft {
			t.Fatalf("reply %d: %d bytes left after it, net/http leaves %d", replies, left, stdLeft)
		}
		if g.Close {
			return replies + 1, ourSrc.Len()+ours.Buffered() == 0
		}
	}
}

// TestReplyReaderReadsServerShapes: every shape of reply a Server writes is
// accepted, read as net/http reads it, to the last byte of the connection.
func TestReplyReaderReadsServerShapes(t *testing.T) {
	for i, raw := range serverReplies(t) {
		shape := replyShapes[i]
		head := bytes.HasPrefix([]byte(shape.request), []byte("HEAD "))
		replies, all := matchNetHTTP(t, head, raw)
		want := 2
		if shape.name == "connection-close" || shape.name == "http-1.0" {
			want = 1
		}
		if replies != want || !all {
			t.Errorf("%s: %d of %d replies read, all bytes read %v:\n%q", shape.name, replies, want, all, raw)
		}
	}
}

// FuzzReplyMatchesNetHTTP is the reply reader's contract: fed any bytes as
// the replies on one connection, readReply refuses them, or reads each reply
// it accepts — status, length, Close, coding, Content-Type, Retry-After, body
// and where it ends — as http.ReadResponse does.
func FuzzReplyMatchesNetHTTP(f *testing.F) {
	for i, raw := range serverReplies(f) {
		f.Add(bytes.HasPrefix([]byte(replyShapes[i].request), []byte("HEAD ")), raw)
	}
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 204 No Content\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 03\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nz",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n",
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTrailer: X\r\nTransfer-Encoding: chunked\r\n\r\n0\r\nX: 1\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Length: 0\n\n",
		"HTTP/1.1 200 OK\r\nX-A: 1\r\n 2\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Type: text/plain\r\nConnection: keep-alive, Close\r\n\r\n{}",
		"HTTP/1.1 429 Too Many Requests\r\nRetry-After:\t7 \r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\nhello",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel",
		"HTTP/1.1  200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 2000 OK\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-A: a\x00b\r\nContent-Length: 0\r\n\r\n",
	} {
		f.Add(false, []byte(seed))
	}
	f.Fuzz(func(t *testing.T, head bool, raw []byte) {
		matchNetHTTP(t, head, raw)
	})
}
