package client_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
)

func TestTraceDecoderValidStream(t *testing.T) {
	in := `{"seq":0,"t":10,"stage":"submit","cmd":1,"op":"job-submit","tenant":"a"}
{"seq":1,"t":20,"stage":"wal-append","cmd":1,"durNs":10}

{"seq":2,"t":30,"stage":"apply","cmd":1,"durNs":20}
`
	d := client.NewStream[obs.Event](io.NopCloser(strings.NewReader(in)))
	var got []obs.Event
	for {
		ev, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d events, want 3", len(got))
	}
	if got[0].Stage != obs.StageSubmit || got[0].Cmd != 1 || got[0].Tenant != "a" {
		t.Errorf("event 0: %+v", got[0])
	}
	if got[2].Stage != obs.StageApply || got[2].DurNs != 20 {
		t.Errorf("event 2: %+v", got[2])
	}
}

// TestTraceDecoderRecovers: a malformed line errors without poisoning the
// stream — the valid lines on either side still decode.
func TestTraceDecoderRecovers(t *testing.T) {
	in := `{"seq":0,"stage":"submit"}
{not json at all
{"seq":1,"stage":"apply"}`
	d := client.NewStream[obs.Event](io.NopCloser(strings.NewReader(in)))
	if ev, err := d.Next(); err != nil || ev.Seq != 0 {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	if _, err := d.Next(); err == nil {
		t.Fatal("malformed line decoded without error")
	}
	if ev, err := d.Next(); err != nil || ev.Seq != 1 || ev.Stage != obs.StageApply {
		t.Fatalf("event after malformed line: %+v, %v", ev, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestTraceDecoderTruncatedTail(t *testing.T) {
	// A crash mid-write leaves a torn final line: it errors, then EOF.
	in := "{\"seq\":0,\"stage\":\"submit\"}\n{\"seq\":1,\"sta"
	d := client.NewStream[obs.Event](io.NopCloser(strings.NewReader(in)))
	if ev, err := d.Next(); err != nil || ev.Seq != 0 {
		t.Fatalf("first event: %+v, %v", ev, err)
	}
	if _, err := d.Next(); err == nil || err == io.EOF {
		t.Fatalf("torn tail: want decode error, got %v", err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after torn tail: want io.EOF, got %v", err)
	}
}

func TestTraceDecoderOversizedLine(t *testing.T) {
	in := "{\"pad\":\"" + strings.Repeat("x", 2<<20) + "\"}\n"
	d := client.NewStream[obs.Event](io.NopCloser(strings.NewReader(in)))
	if _, err := d.Next(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("oversized line: want bufio.ErrTooLong, got %v", err)
	}
}

// FuzzTraceDecoder: no byte stream panics the Stream reader, a reader
// always terminates (every Next consumes input or errors), and a valid
// line prefixed to arbitrary bytes always decodes first, intact.
func FuzzTraceDecoder(f *testing.F) {
	f.Add([]byte(`{"seq":7,"t":1,"stage":"submit"}` + "\n"))
	f.Add([]byte("{\"seq\":0,\"stage\":\"apply\"}\n{\"seq\":1,\"sta"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"seq":true}`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := client.NewStream[obs.Event](io.NopCloser(bytes.NewReader(data)))
		for {
			// Decode errors are fine; only hangs and panics are bugs. The
			// loop ends because every Next consumes at least one line.
			_, err := d.Next()
			if err == io.EOF || errors.Is(err, bufio.ErrTooLong) {
				break
			}
		}

		valid := `{"seq":42,"t":9,"stage":"dispatch","cmd":3,"task":"web","dseq":5,"lag":"1/2"}` + "\n"
		d = client.NewStream[obs.Event](io.NopCloser(io.MultiReader(strings.NewReader(valid), bytes.NewReader(data))))
		ev, err := d.Next()
		if err != nil {
			t.Fatalf("valid prefix failed to decode: %v", err)
		}
		if ev.Seq != 42 || ev.Stage != obs.StageDispatch || ev.Task != "web" || ev.Lag != "1/2" {
			t.Fatalf("valid prefix decoded wrong: %+v", ev)
		}
	})
}

// TestStreamTraceEndToEnd drives the Stream reader over the real wire:
// client → HTTP → server trace ring → NDJSON → Stream.
func TestStreamTraceEndToEnd(t *testing.T) {
	srv := server.New()
	hs := hoptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(srv.Shutdown)
	c := client.New(hs.URL, nil)
	ctx := context.Background()

	if _, err := c.CreateTenant(ctx, "acme", 1, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RegisterTask(ctx, "acme", "web", model.W(1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(ctx, "acme", "web", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Advance(ctx, "acme", "2"); err != nil {
		t.Fatal(err)
	}

	st, err := c.StreamTrace(ctx, "acme", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var stages []string
	for {
		ev, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, ev.Stage)
	}
	// In-memory server: no wal-append stages; register + submit + advance
	// give submit/apply pairs plus one dispatch inside the advance.
	want := []string{
		obs.StageSubmit, obs.StageApply,
		obs.StageSubmit, obs.StageApply,
		obs.StageSubmit, obs.StageDispatch, obs.StageApply,
	}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("stages over the wire: %v, want %v", stages, want)
	}

	if _, err := c.StreamTrace(ctx, "ghost", 0, false); err == nil {
		t.Fatal("trace stream for unknown tenant succeeded")
	}
}
