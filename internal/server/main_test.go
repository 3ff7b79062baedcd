package server_test

import (
	"os"
	"testing"

	"desyncpfair/internal/server"
)

// TestMain runs the package's tests with dispatch history sealed in
// 8-event segments instead of production's 4096, so every scripted load
// here — the crash-recovery sweeps, the resize storm, the snapshot storm —
// crosses both snapshot forms: manifests naming history files and, below
// eight events, an inline tail. Tests about the production segment size
// (TestLongTenantSnapshotsStayFlat) restore it for their own duration, and
// so does every benchmark of a journaled tenant (AtProductionSegments, or
// BenchmarkCompact's own), which measures what pfaird does: a seal per 4096
// events, not per 8. The one row that seals at 8 sets it on purpose
// (BenchmarkServerSubmitContended's seal row).
func TestMain(m *testing.M) {
	server.SetHistSegmentMin(8)
	os.Exit(m.Run())
}
