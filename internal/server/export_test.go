package server

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"desyncpfair/internal/online"
	"desyncpfair/internal/wal"
)

// SetHistSegmentMin lets the external test package seal dispatch history
// in segments far shorter than production's, so small scripted loads cross
// the sealing path; it returns a func restoring the previous value. Only
// for serial test code: the variable is read by every compaction and
// every settle.
func SetHistSegmentMin(n int) (restore func()) {
	old := histSegmentMin
	histSegmentMin = n
	return func() { histSegmentMin = old }
}

// productionHistSegmentMin is histSegmentMin as pfaird runs it, read at
// package init, before TestMain shortens it.
var productionHistSegmentMin = histSegmentMin

// AtProductionSegments seals at pfaird's segment size for tb's duration: a
// benchmark of a journaled tenant measures the sealing production does.
func AtProductionSegments(tb testing.TB) {
	tb.Cleanup(SetHistSegmentMin(productionHistSegmentMin))
}

// SetStreamStall shortens the per-write stall deadline of every stream the
// server opens from now on; call it before any stream opens.
func (s *Server) SetStreamStall(d time.Duration) { s.streamStall = d }

// Tenant returns the server's tenant id, or nil when it has none.
func (s *Server) Tenant(id string) *Tenant { return s.tenant(id) }

// WaitDurable waits on c as a handler does before it acknowledges.
func (s *Server) WaitDurable(c wal.Commit) error { return s.waitDurable(c) }

// Compact runs one compaction now, as a due snapshot would.
func (s *Server) Compact() error { return s.compact() }

// HoldLoop parks the tenant's drainer on a command of its own and returns
// once it is parked: whatever is queued behind — requests, a compaction's
// checkpoint — waits until release (idempotent) is called.
func (t *Tenant) HoldLoop() (release func()) {
	parked, held := make(chan struct{}), make(chan struct{})
	go t.onLoop(func() {
		close(parked)
		<-held
	})
	<-parked
	return sync.OnceFunc(func() { close(held) })
}

// Queued is how many commands wait in the tenant's queue.
func (t *Tenant) Queued() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queue)
}

// SyncJournal forces the journal's unsynced records to disk, as the idle
// flush or a threshold crossing would: tests that disable both use it to
// decide the instant a record becomes durable.
func (s *Server) SyncJournal() error { return s.wal.Sync() }

// JournalMarker appends one record that changes no state — a term marker
// under the current term — without waiting for it to be durable: the
// cheapest way to give a replication stream something to ship.
func (s *Server) JournalMarker() error {
	_, err := s.wal.AppendAsync(wal.Record{Op: wal.OpTerm})
	return err
}

// DispatchChunks reports tenant id's closed resident dispatch chunks: the
// seq each starts at, then the seq the open tail starts at; and how many
// of them are cold (held as compact records).
func (s *Server) DispatchChunks(id string) (bounds []int64, cold int) {
	log := s.tenant(id).snap.Load().log
	for _, c := range log.full {
		bounds = append(bounds, c.first)
		if c.cold() {
			cold++
		}
	}
	return append(bounds, log.tail.first), cold
}

// ResidentEvents is how many of the tenant's decisions its dispatch
// history holds in memory: those no history file holds yet.
func (t *Tenant) ResidentEvents() int64 {
	log := t.snap.Load().log
	return log.len() - log.floor()
}

// ResidentBytes is what the tenant's dispatch history holds in memory, as
// pfaird_tenant_history_resident_bytes reports it.
func (t *Tenant) ResidentBytes() int64 { return t.snap.Load().log.resident }

// EngineWork reads the tenant executive's ready-heap work counter, on the
// loop.
func (t *Tenant) EngineWork() online.Work {
	var w online.Work
	t.onLoop(func() { w = t.ex.Work() })
	return w
}

// HoldDispatchView keeps the view of tenant id's dispatch log published
// now and returns a replay of it from seq 0, through the path a stream's
// drain takes: what a stream that loaded the view before the log grew
// serves, whenever it is called.
func (s *Server) HoldDispatchView(id string) (replay func() ([]byte, error)) {
	log := &s.tenant(id).snap.Load().log
	return func() ([]byte, error) {
		var b bytes.Buffer
		var render []byte
		_, err := s.drainLog(&b, log, 0, &render)
		return b.Bytes(), err
	}
}
