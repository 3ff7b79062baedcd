package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"desyncpfair/internal/server"
)

// What happens after the load, per workload: stream_tail's replay against
// its live reader, routed_replica's catch-up, long_tenant's SIGKILL and
// restart — each with its output checks.

// --- stream_tail: the live reader beside the writer ---

// tailReader follows one tenant's dispatch stream from seq 0, stamping
// every frame on arrival and keeping the raw bytes for the byte-identity
// check against the replay.
type tailReader struct {
	cancel context.CancelFunc
	done   chan struct{}
	got    atomic.Int64 // frames received so far
	recvAt []int64      // arrival time of frame seq, ns
	raw    bytes.Buffer
	evict  int
	err    error

	// Written by the writer's goroutine through onAdvance.
	sentAt  []int64 // advance request sent
	lastSeq []int64 // seq of the last frame that advance produced
	lagAt   []int64 // frames the reader trailed by when the advance was acknowledged
}

func startTail(ctx context.Context, hc *http.Client, base, tenant string, expect int64) *tailReader {
	ctx, cancel := context.WithCancel(ctx)
	t := &tailReader{cancel: cancel, done: make(chan struct{}), recvAt: make([]int64, expect)}
	go func() {
		defer close(t.done)
		t.err = t.read(ctx, hc, base, tenant, expect)
	}()
	return t
}

func (t *tailReader) read(ctx context.Context, hc *http.Client, base, tenant string, expect int64) error {
	t.raw.Grow(int(expect) * 128) // a frame is ≈ 115 bytes; one allocation, not a doubling series beside the writer
	for pos := int64(0); pos < expect; {
		var err error
		if pos, err = t.readFrom(ctx, hc, base, tenant, pos, expect); err != nil {
			return err
		}
	}
	return nil
}

// readFrom follows the stream from pos until every expected frame has
// arrived or the server evicts the reader with an in-band 410; it returns
// the position to resume from.
func (t *tailReader) readFrom(ctx context.Context, hc *http.Client, base, tenant string, pos, expect int64) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/tenants/%s/dispatches?from=%d&follow=true", base, tenant, pos), nil)
	if err != nil {
		return pos, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return pos, err
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for pos < expect {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return pos, fmt.Errorf("stream ended at seq %d of %d: %w", pos, expect, err)
		}
		if rest, ok := bytes.CutPrefix(line, []byte(`{"seq":`)); ok {
			seq, _ := strconv.ParseInt(string(rest[:bytes.IndexByte(rest, ',')]), 10, 64)
			if seq != pos {
				return pos, fmt.Errorf("stream not contiguous: got seq %d, want %d", seq, pos)
			}
			t.recvAt[pos] = nowNs()
			t.raw.Write(line)
			pos++
			t.got.Store(pos)
			continue
		}
		// An in-band 410: the server cut a lagging reader loose. Resume
		// where it says and keep counting delivered frames.
		var gone server.StreamGone
		if json.Unmarshal(line, &gone) != nil || gone.Error == "" {
			return pos, fmt.Errorf("unexpected stream line %q", line)
		}
		t.evict++
		if gone.ResumeFrom != pos {
			return pos, fmt.Errorf("evicted at seq %d but told to resume from %d", pos, gone.ResumeFrom)
		}
		return pos, nil
	}
	return pos, nil
}

func (t *tailReader) onAdvance(_ *plan, ot opTime, cum int64) {
	if ot.dispatched == 0 {
		return
	}
	t.sentAt = append(t.sentAt, ot.t0)
	t.lastSeq = append(t.lastSeq, cum-1)
	t.lagAt = append(t.lagAt, cum-t.got.Load())
}

// closeTail waits for the reader to receive every frame, replays the log
// once from 0 as raw bytes, and checks the two are byte-identical.
func closeTail(ctx context.Context, hc *http.Client, cl *rig, w *workload, t *tailReader, ps *pass) {
	select {
	case <-t.done:
	case <-time.After(10 * time.Second):
		t.cancel()
		<-t.done
	}
	t.cancel()
	p := w.clients[0][0][0]
	ps.check(t.err == nil, "live reader: %v", t.err)
	ps.check(t.got.Load() == p.dispatches(), "live reader got %d frames, want %d", t.got.Load(), p.dispatches())

	var deliver []int64
	for i, seq := range t.lastSeq {
		if seq < t.got.Load() {
			deliver = append(deliver, t.recvAt[seq]-t.sentAt[i])
		}
	}
	ps.m["deliver_p50_us"] = float64(pctl(deliver, 0.5)) / 1e3
	ps.m["deliver_p99_us"] = float64(pctl(deliver, 0.99)) / 1e3
	ps.m["egress.follower_lag_records_p99"] = float64(pctl(t.lagAt, 0.99))
	ps.m["egress.evictions_410"] = float64(t.evict)

	t0 := time.Now()
	replay, err := getBody(ctx, hc, fmt.Sprintf("%s/v1/tenants/%s/dispatches?from=0&follow=false", cl.entry, p.id))
	el := time.Since(t0).Seconds()
	frames := bytes.Count(replay, []byte("\n"))
	ps.check(err == nil, "replay: %v", err)
	ps.check(int64(frames) == p.dispatches(), "replay has %d frames, want %d", frames, p.dispatches())
	ps.check(bytes.Equal(replay, t.raw.Bytes()), "replay (%d bytes) is not byte-identical to the live stream (%d bytes)", len(replay), t.raw.Len())
	if frames > 0 {
		ps.m["replay_frames_per_s"] = float64(frames) / el
		ps.m["egress.bytes_per_frame"] = float64(len(replay)) / float64(frames)
	}
	// The tenant was kept for the replay; remove it now.
	rec := newRecorder(0, lvHTTP, false)
	_, err = newHTTPTarget(ctx, cl.entry, hc, rec).remove(p)
	ps.check(err == nil, "delete %s: %v", p.id, err)
}

// --- routed_replica: catch-up and lag ---

func replStatus(ctx context.Context, hc *http.Client, url string) (server.ReplStatusResponse, error) {
	var st server.ReplStatusResponse
	err := getJSON(ctx, hc, url+"/v1/replication/status", &st)
	return st, err
}

// catchUp times last client ack → the follower has applied everything
// the leader had written at that moment.
func catchUp(ctx context.Context, hc *http.Client, cl *rig, lastAck time.Time, ps *pass) {
	lead, err := replStatus(ctx, hc, cl.leader.url)
	ps.check(err == nil, "leader replication status: %v", err)
	target := lead.WrittenLSN
	var fol server.ReplStatusResponse
	for i := 0; time.Since(lastAck) < 10*time.Second; i++ {
		if fol, err = replStatus(ctx, hc, cl.follower.url); err == nil && fol.AppliedLSN >= target {
			break
		}
		// A follower whose tailer gave up reports "degraded" and will
		// never catch up; do not wait out the ten seconds for it.
		var h server.HealthResponse
		if i%64 == 63 && getJSON(ctx, hc, cl.follower.url+"/healthz", &h) == nil && h.Status == "degraded" {
			ps.notes = append(ps.notes, "follower is degraded: its replication stream ended for good")
			break
		}
		time.Sleep(time.Millisecond)
	}
	ps.check(fol.AppliedLSN >= target, "replica applied LSN %d, leader wrote %d: not caught up within 10s", fol.AppliedLSN, target)
	ps.m["replica_catchup_s"] = time.Since(lastAck).Seconds()
	ps.notes = append(ps.notes, fmt.Sprintf("replication: leader wrote LSN %d, follower applied %d", target, fol.AppliedLSN))
}

// lagSampler polls both replication statuses during the load and keeps
// leader.durable − follower.applied. It runs only in a traced pass: the
// polls are extra requests the untraced numbers should not carry.
type lagSampler struct {
	cancel context.CancelFunc
	done   chan struct{}
	lags   []int64
}

func startLagSampler(ctx context.Context, hc *http.Client, leader, follower string) *lagSampler {
	ctx, cancel := context.WithCancel(ctx)
	s := &lagSampler{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
			l, err1 := replStatus(ctx, hc, leader)
			f, err2 := replStatus(ctx, hc, follower)
			if err1 == nil && err2 == nil && l.DurableLSN >= f.AppliedLSN {
				s.lags = append(s.lags, int64(l.DurableLSN-f.AppliedLSN))
			}
		}
	}()
	return s
}

func (s *lagSampler) stop() int64 {
	s.cancel()
	<-s.done
	return pctl(s.lags, 0.99)
}

// --- long_tenant: SIGKILL, restart on the same data dir, verify ---

func restart(ctx context.Context, L launcher, hc *http.Client, cl *rig, w *workload, ps *pass) error {
	p := w.clients[0][0][0]
	var acked server.TenantInfo
	if err := getJSON(ctx, hc, cl.leader.url+"/v1/tenants/"+p.id, &acked); err != nil {
		return fmt.Errorf("read acknowledged state: %w", err)
	}
	dir := cl.leader.dataDir
	cl.leader.kill()
	t0 := time.Now()
	n, err := L.pfaird(serverSpec{dataDir: dir})
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	cl.leader = n
	if err := waitHealthy(ctx, hc, n.url); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	ps.m["recovery_s"] = time.Since(t0).Seconds()

	var got server.TenantInfo
	err = getJSON(ctx, hc, n.url+"/v1/tenants/"+p.id, &got)
	ps.check(err == nil, "recovered tenant: %v", err)
	ps.check(got.Dispatches == acked.Dispatches && got.Now == acked.Now,
		"recovered %d dispatches at time %s, acknowledged %d at %s", got.Dispatches, got.Now, acked.Dispatches, acked.Now)
	var h server.HealthResponse
	err = getJSON(ctx, hc, n.url+"/healthz", &h)
	ps.check(err == nil && h.Recovery != nil && h.Recovery.DispatchMismatches == 0 && h.Recovery.ReplayErrors == 0,
		"recovery not clean: %+v (%v)", h.Recovery, err)
	if h.Recovery != nil {
		ps.notes = append(ps.notes, fmt.Sprintf("recovery: snapshot LSN %d, %d record(s) replayed", h.Recovery.SnapshotLSN, h.Recovery.RecordsReplayed))
	}
	return nil
}
