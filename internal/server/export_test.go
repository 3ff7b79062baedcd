package server

import "desyncpfair/internal/wal"

// SetHistSegmentMin lets the external test package seal dispatch history
// in segments far shorter than production's, so small scripted loads cross
// the sealing path; it returns a func restoring the previous value. Only
// for serial test code: the variable is read by every compaction.
func SetHistSegmentMin(n int) (restore func()) {
	old := histSegmentMin
	histSegmentMin = n
	return func() { histSegmentMin = old }
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
