package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"desyncpfair/internal/hop"
	"desyncpfair/internal/server"
	"desyncpfair/internal/wal"
)

// Bootstrap prepares dataDir for follower duty: it fetches the leader's
// latest journal snapshot and installs it, so the subsequent server.Open
// recovers the leader's checkpointed state through the exact replay path
// a crash recovery would use. A data dir whose journal already reaches
// the snapshot's LSN is left alone — a re-joining follower resumes from
// its own prefix (which term fencing guarantees is a prefix of the
// leader's log) instead of rewinding. A leader that takes the connection
// and does not begin to answer within snapshotHeaderWait is an error, like
// one that refuses it: the node has nothing to serve yet, so its start
// fails rather than hangs. leader must be http://host:port; dial opens the
// connections to it, and nil means TCP.
func Bootstrap(dataDir, leader string, dial hop.DialFunc, fs wal.FS) error {
	up, err := hop.New(leader)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap: %w", err)
	}
	hop.DialWith(up, dial)
	defer up.CloseIdle()
	snap, err := fetchSnapshot(context.Background(), up, snapshotHeaderWait)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap: %w", err)
	}
	l, _, err := wal.Open(dataDir, wal.Options{FS: fs})
	if err != nil {
		return fmt.Errorf("cluster: bootstrap: %w", err)
	}
	defer l.Close()
	if l.WrittenLSN() >= snap.LSN {
		return nil
	}
	if err := l.InstallSnapshot(snap.Payload, snap.LSN, snap.Term); err != nil {
		return fmt.Errorf("cluster: bootstrap: %w", err)
	}
	return nil
}

// snapshotHeaderWait bounds the wait for the leader's response headers to
// a snapshot request. The leader images its state before it writes the
// first byte, so the bound is generous; the body that follows may be as
// long as the history and has no deadline.
const snapshotHeaderWait = 30 * time.Second

func fetchSnapshot(ctx context.Context, up *hop.Upstream, headerWait time.Duration) (server.ReplSnapshotResponse, error) {
	var snap server.ReplSnapshotResponse
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	silent := time.AfterFunc(headerWait, cancel)
	resp, err := up.RoundTrip(ctx, http.MethodGet, "/v1/replication/snapshot", "", nil)
	if !silent.Stop() {
		// The timer fired: whatever RoundTrip returned, the request is cancelled.
		if err == nil {
			resp.Body.Close()
		}
		return snap, fmt.Errorf("leader snapshot: no response headers from %s within %v", up.URL, headerWait)
	}
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return snap, fmt.Errorf("leader snapshot: HTTP %d: %s", resp.StatusCode, body)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// Follower tails a leader's journal into a server opened with
// Options{Follower: true}, over one hop.Upstream to the leader: one goroutine
// streams /v1/replication/log, CRC-verifies every frame, and feeds records
// through ApplyReplicated; a second asks /v1/replication/status for the
// leader's durable tip, at once and then on a ticker that keeps the lag gauge
// fresh. The node leaves bootstrap at whichever of the two events finds it
// has applied everything up to the newest tip it was told: the status answer
// (nothing to catch up on) or the applied record that closes the backlog.
// Seal stops both permanently (the step promotion runs first); Promote is
// Seal plus the server-side term bump.
type Follower struct {
	srv *server.Server
	up  *hop.Upstream // nil when the leader's URL was refused

	// tip is the leader's durable LSN as of its latest status answer, -1
	// before the first. The status loop stores it and then reads what the
	// node has applied; the tail loop applies a record and then reads it: in
	// that order whichever of the two comes second sees the other (progress).
	tip atomic.Int64
	// ready is closed when the node leaves bootstrap by catching up, after
	// readyLSN and readyTook are written.
	ready     chan struct{}
	readyOnce sync.Once
	readyLSN  uint64
	readyTook time.Duration

	cancel context.CancelFunc
	loops  sync.WaitGroup // the tail and status loops
}

// statusRefresh is how often a follower asks its leader for the durable tip
// again, once it has the first answer: the period of the lag gauge, not of
// anything that waits.
const statusRefresh = 50 * time.Millisecond

// tailRetry is how long a follower waits after its log stream broke before
// it opens the next one.
const tailRetry = 100 * time.Millisecond

// tickerFunc is time.NewTicker behind a seam: the loops of this package take
// theirs through one, so a test can hand them a ticker that never fires and
// show that nothing waits for it.
type tickerFunc func(d time.Duration) (c <-chan time.Time, stop func())

func realTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// StartFollower begins replicating from leader into srv and registers
// itself as srv's promote hook, so POST /v1/cluster/promote on the
// follower seals the stream before flipping writable. dial opens the
// connections to leader, and nil means TCP. A leader URL that is not
// http://host:port starts nothing: the node stays in bootstrap, /healthz
// answering 503, with the refusal as its replication error.
func StartFollower(srv *server.Server, leader string, dial hop.DialFunc) *Follower {
	return startFollower(srv, leader, dial, realTicker)
}

func startFollower(srv *server.Server, leader string, dial hop.DialFunc, newTicker tickerFunc) *Follower {
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{srv: srv, ready: make(chan struct{}), cancel: cancel}
	f.tip.Store(-1)
	srv.SetPromoteHook(f.Seal)
	up, err := hop.New(leader)
	if err != nil {
		srv.SetReplicationError(err.Error())
		return f
	}
	hop.DialWith(up, dial)
	f.up = up
	f.loops.Add(2)
	go f.tailLoop(ctx, newTicker)
	go f.statusLoop(ctx, newTicker)
	return f
}

// WaitReady blocks until the node has left bootstrap by catching up with
// its leader — /healthz answers 200 from then on — and returns the LSN it had
// applied at that instant and how long bootstrap took by the server's clock.
// A node that is sealed or promoted first never gets there: give ctx an end.
func (f *Follower) WaitReady(ctx context.Context) (appliedLSN uint64, took time.Duration, err error) {
	select {
	case <-f.ready:
		return f.readyLSN, f.readyTook, nil
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	}
}

// progress holds what the node has applied against the newest tip its leader
// reported: it keeps the lag gauge, and ends bootstrap the first time the gap
// is closed. Both loops call it, each after publishing its own half.
func (f *Follower) progress() {
	tip := f.tip.Load()
	if tip < 0 {
		return
	}
	applied := f.srv.AppliedLSN()
	if lag := tip - int64(applied); lag > 0 {
		f.srv.SetReplicationLag(lag)
		return
	}
	f.srv.SetReplicationLag(0)
	f.readyOnce.Do(func() {
		f.readyLSN, f.readyTook = applied, f.srv.SetCaughtUp()
		close(f.ready)
	})
}

// Seal permanently stops the tail and status loops, waits for them and
// closes the connections they left idle, so the old leader holds none for
// this node: after Seal returns, no further ApplyReplicated can happen, which
// is the precondition for a race-free term bump. Idempotent; always nil.
func (f *Follower) Seal() error {
	f.cancel()
	f.loops.Wait()
	if f.up != nil {
		f.up.CloseIdle()
	}
	return nil
}

// Promote seals the stream and flips the server writable under a fresh
// term.
func (f *Follower) Promote() error {
	_ = f.Seal()
	return f.srv.Promote()
}

// tailLoop streams the leader's journal, reconnecting tailRetry after a
// transport error (the wait is newTicker's, so a test decides when it
// ends). Two conditions end the loop besides Seal: a stale-term rejection
// (this node was promoted or fenced — replicating further would be wrong)
// and a 410 Gone (the leader compacted past our cursor; live re-bootstrap
// would have to rebuild all tenant state, so the node degrades and an
// operator restarts it to re-bootstrap from scratch).
func (f *Follower) tailLoop(ctx context.Context, newTicker tickerFunc) {
	defer f.loops.Done()
	for ctx.Err() == nil {
		err := f.tailOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, wal.ErrStaleTerm):
			f.srv.SetReplicationError(fmt.Sprintf("fenced: %v", err))
			return
		case errors.Is(err, errSnapshotHorizon):
			f.srv.SetReplicationError(err.Error())
			return
		case err != nil:
			f.srv.SetReplicationError(err.Error())
		}
		tick, stop := newTicker(tailRetry)
		select {
		case <-ctx.Done():
		case <-tick:
		}
		stop()
	}
}

var errSnapshotHorizon = errors.New("cluster: leader compacted past our cursor; restart the follower to re-bootstrap")

// tailOnce opens one log stream from the next needed LSN and applies
// records until the stream breaks.
func (f *Follower) tailOnce(ctx context.Context) error {
	target := fmt.Sprintf("/v1/replication/log?from=%d&follow=true", f.srv.AppliedLSN()+1)
	resp, err := f.up.RoundTrip(ctx, http.MethodGet, target, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errSnapshotHorizon
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("cluster: log stream: HTTP %d: %s", resp.StatusCode, body)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	applied := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, ok := server.DecodeReplLine(line)
		if !ok {
			var frame server.ReplFrame
			if err := json.Unmarshal(line, &frame); err != nil {
				return fmt.Errorf("cluster: log stream: %v", err)
			}
			if rec, err = frame.Verify(); err != nil {
				return err
			}
		}
		if err := f.srv.ApplyReplicated(rec); err != nil {
			return err
		}
		// The stream delivered and the journal took a record: any past
		// transport fault is over. Whether the record applied cleanly is the
		// server's to count, and this does not clear it.
		f.srv.SetReplicationError("")
		f.progress()
		if applied++; applied%256 == 0 {
			f.srv.MaybeCompact()
		}
	}
	return sc.Err()
}

// statusLoop asks the leader for its durable tip — first at once, so a
// follower with nothing to catch up on is ready as soon as the answer is
// back, then on the ticker — and lets progress hold the node against it.
func (f *Follower) statusLoop(ctx context.Context, newTicker tickerFunc) {
	defer f.loops.Done()
	tick, stop := newTicker(statusRefresh)
	defer stop()
	for {
		// Transport faults surface via the tail loop; the next tick asks again.
		var st server.ReplStatusResponse
		if getJSON(ctx, f.up, "/v1/replication/status", &st) == nil {
			f.tip.Store(int64(st.DurableLSN))
			f.progress()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick:
		}
	}
}
