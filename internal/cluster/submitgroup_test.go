package cluster

import (
	"bytes"
	"io"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"

	"desyncpfair/internal/client"
	"desyncpfair/internal/hop/hoptest"
	"desyncpfair/internal/model"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// cutLog stands between a follower and its leader like gatedLog, but serves
// the log stream once, from a fixed copy, and ends it after those bytes — a
// leader that died mid-stream. Served over a pipe, the flush of the copy
// returns only once the follower has read all of it, and eof is closed then;
// any later log request is held open, empty, until the follower hangs up.
type cutLog struct {
	leader http.Handler
	stream []byte
	eof    chan struct{}
	served atomic.Bool
}

func (c *cutLog) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/replication/log" {
		c.leader.ServeHTTP(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if c.served.Swap(true) {
		w.(http.Flusher).Flush()
		<-r.Context().Done()
		return
	}
	w.Write(c.stream)
	w.(http.Flusher).Flush()
	close(c.eof)
}

// TestFollowerOfCutStreamHoldsWholeBatches is the follower's half of the
// torn-batch sweep: a leader journals a four-job keyed batch, and a fresh
// replica is fed its replication stream cut at every byte of the batch —
// the leader dying mid-write — and promoted. Whatever arrived, it holds none
// of the batch's jobs or all four, and the client's retry of the identical
// batch against the new leader is accepted with the results the old one gave.
func TestFollowerOfCutStreamHoldsWholeBatches(t *testing.T) {
	ctx := testContext(t)
	lsrv, lhs := leaderAt(t, t.TempDir())
	c := client.New(lhs.URL, nil)
	if _, err := c.CreateTenant(ctx, "t", 2, ""); err != nil {
		t.Fatal(err)
	}
	var batch []server.SubmitJobRequest
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, err := c.RegisterTask(ctx, "t", name, model.W(1, 2)); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, server.SubmitJobRequest{Task: name, Key: "round-1/" + name})
	}
	want, err := c.SubmitJobs(ctx, "t", batch)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(lhs.URL + "/v1/replication/log?from=1&follow=false")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The batch's bytes in the stream: from its first job-submit line on.
	lo := 0
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if rec, ok := server.DecodeReplLine(bytes.TrimSuffix(line, []byte("\n"))); ok && rec.Op == wal.OpJobSubmit {
			break
		}
		lo += len(line)
	}
	if len(stream)-lo < 64 {
		t.Fatalf("no batch in the leader's stream of %d bytes", len(stream))
	}

	for cut := lo; cut <= len(stream); cut++ {
		dir := t.TempDir()
		if err := Bootstrap(dir, lhs.URL, nil, nil); err != nil {
			t.Fatal(err)
		}
		fsrv, err := server.Open(server.Options{DataDir: dir, FsyncEvery: 1, Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		gate := &cutLog{leader: lsrv.Handler(), stream: stream[:cut], eof: make(chan struct{})}
		url, dial := pipeLeader(t, gate, nil)
		fol := startFollower(fsrv, url, dial, neverTicker)
		select {
		case <-gate.eof:
		case <-ctx.Done():
			t.Fatalf("cut %d: the follower never read its stream to the end", cut)
		}
		// Promote seals first: it returns once the tail loop has applied
		// everything it scanned.
		if err := fol.Promote(); err != nil {
			t.Fatalf("cut %d: promote: %v", cut, err)
		}
		fhs := hoptest.NewServer(fsrv.Handler())
		fc := client.New(fhs.URL, nil)
		info, err := fc.Tenant(ctx, "t")
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if info.Pending != 0 && info.Pending != len(batch) {
			t.Fatalf("cut at byte %d of the batch's %d: the promoted follower holds %d of %d jobs — a batch must arrive whole or not at all",
				cut-lo, len(stream)-lo, info.Pending, len(batch))
		}
		if cut == len(stream) && info.Pending != len(batch) {
			t.Fatalf("the whole stream left %d jobs pending", info.Pending)
		}
		for try := 0; try < 2; try++ {
			if got, err := fc.SubmitJobs(ctx, "t", batch); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("cut %d, retry %d: %+v, %v; want %+v", cut-lo, try, got, err, want)
			}
		}
		if info, _ := fc.Tenant(ctx, "t"); info.Pending != len(batch) {
			t.Fatalf("cut %d: %d jobs pending after the retries, want %d", cut-lo, info.Pending, len(batch))
		}
		fhs.Close()
		fsrv.Close()
	}
}
