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
// (TestLongTenantSnapshotsStayFlat, BenchmarkCompact) restore it for
// their own duration.
func TestMain(m *testing.M) {
	server.SetHistSegmentMin(8)
	os.Exit(m.Run())
}
