package server_test

// Tests of sealed dispatch history: what a compaction writes, what a crash
// at any point of it leaves behind, and that every older form of a data
// directory still opens. TestMain seals in 8-event segments, so the small
// scripts here cross the sealing path many times over.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"desyncpfair/internal/faultfs"
	"desyncpfair/internal/model"
	"desyncpfair/internal/obs"
	"desyncpfair/internal/server"
)

// dispatchBytes is the tenant's whole ?from=0 replay, as raw wire bytes.
func dispatchBytes(t testing.TB, h http.Handler, id string) []byte {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/v1/tenants/"+id+"/dispatches?from=0&follow=false", nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("dispatches %s: %d", id, rw.Code)
	}
	return rw.Body.Bytes()
}

// snapshotOnDisk decodes the parts of a data directory's snapshot these
// tests look at.
type snapshotOnDisk struct {
	LSN     uint64 `json:"lsn"`
	Payload struct {
		Tenants []struct {
			ID      string `json:"id"`
			LSN     uint64 `json:"lsn"`
			History []struct {
				File  string `json:"file"`
				Count int64  `json:"count"`
				Bytes int64  `json:"bytes"`
			} `json:"history"`
			Log  []json.RawMessage `json:"log"`
			Exec struct {
				Tasks []struct {
					Cursor int               `json:"cursor"`
					Subs   []json.RawMessage `json:"subs"`
				} `json:"tasks"`
			} `json:"exec"`
		} `json:"tenants"`
	} `json:"payload"`
}

func readSnapshot(t testing.TB, dir string) (snap snapshotOnDisk, size int64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot.json: %v", err)
	}
	return snap, int64(len(raw))
}

// metricValue scrapes /metrics for the sample called name whose labels are
// the given name, value pairs (none: the unlabelled one). A histogram's
// _count or _sum is found in its family.
func metricValue(t testing.TB, h http.Handler, name string, labels ...string) int64 {
	t.Helper()
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	ex, err := obs.ParseExposition(rw.Body.String())
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	f := ex.Family(name)
	if i := strings.LastIndexByte(name, '_'); f == nil && i > 0 {
		f = ex.Family(name[:i])
	}
	if f != nil {
	samples:
		for _, s := range f.Samples {
			if s.Name != name || len(s.Labels) != len(labels)/2 {
				continue
			}
			for i := 0; i+1 < len(labels); i += 2 {
				if s.Label(labels[i]) != labels[i+1] {
					continue samples
				}
			}
			return int64(s.Value)
		}
	}
	t.Fatalf("/metrics has no sample %s%q", name, labels)
	return 0
}

// histFiles lists the history files (and any write-in-progress leftovers)
// in dir.
func histFiles(t testing.TB, dir string) map[string]bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "hist") || strings.HasSuffix(e.Name(), ".tmp") {
			out[e.Name()] = true
		}
	}
	return out
}

// assertNoOrphans checks the directory holds exactly the history files its
// snapshot names: nothing a crashed compaction or a deleted tenant left.
func assertNoOrphans(t testing.TB, dir string) {
	t.Helper()
	snap, _ := readSnapshot(t, dir)
	named := map[string]bool{}
	for _, tn := range snap.Payload.Tenants {
		for _, seg := range tn.History {
			named[seg.File] = true
		}
	}
	have := histFiles(t, dir)
	for f := range have {
		if !named[f] {
			t.Errorf("%s is on disk but the snapshot does not name it", f)
		}
	}
	for f := range named {
		if !have[f] {
			t.Errorf("the snapshot names %s, which is not on disk", f)
		}
	}
}

// copyDir copies the regular files of data directory src into dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// sealLife appends one life of tenant X to a script: create, register
// tasks of weight e/p, then rounds of {one job per task, advance one
// period}. One command per journal record, so "commands recovered"
// indexes a list of reference states directly.
func sealLife(sc []cmd, tasks []string, e, p int64, rounds int) []cmd {
	add := func(method, path string, body any) { sc = append(sc, cmd{method, path, body}) }
	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "X", M: 2})
	for _, n := range tasks {
		add("POST", "/v1/tenants/X/tasks", server.RegisterTaskRequest{Name: n, E: e, P: p})
	}
	for r := 0; r < rounds; r++ {
		for _, n := range tasks {
			add("POST", "/v1/tenants/X/jobs", server.SubmitJobRequest{Task: n})
		}
		add("POST", "/v1/tenants/X/advance", server.AdvanceRequest{By: fmt.Sprint(p)})
	}
	return sc
}

// referenceStates runs script on an in-memory server and returns the
// observable state after every command prefix, plus each surviving
// tenant's final ?from=0 replay bytes.
func referenceStates(t *testing.T, script []cmd) ([]serverState, map[string][]byte) {
	t.Helper()
	ref := server.New()
	states := []serverState{captureState(t, ref.Handler())}
	for i, c := range script {
		if code := doCmd(t, ref.Handler(), c); code >= 300 {
			t.Fatalf("reference command %d (%s %s): %d", i, c.method, c.path, code)
		}
		states = append(states, captureState(t, ref.Handler()))
	}
	replay := map[string][]byte{}
	for id := range states[len(script)].Infos {
		replay[id] = dispatchBytes(t, ref.Handler(), id)
	}
	return states, replay
}

// batchOtherRounds folds every other maximal run of single submits to one
// tenant into one jobs:batch of the same jobs, so a script journals both
// forms of a submit group's record.
func batchOtherRounds(script []cmd) []cmd {
	var out []cmd
	runs := 0
	for i := 0; i < len(script); {
		j := i
		for j < len(script) && strings.HasSuffix(script[j].path, "/jobs") && script[j].path == script[i].path {
			j++
		}
		switch {
		case j == i:
			out = append(out, script[i])
			j++
		case j-i > 1 && runs%2 == 0:
			var batch server.SubmitJobsRequest
			for _, c := range script[i:j] {
				batch.Jobs = append(batch.Jobs, c.body.(server.SubmitJobRequest))
			}
			out = append(out, cmd{"POST", script[i].path + ":batch", batch})
			runs++
		default:
			out = append(out, script[i:j]...)
			runs++
		}
		i = j
	}
	return out
}

// commandPrefixes maps a command count, as /healthz and recovery report it —
// a batch counts once per job — to the number of script entries that make
// it; sums[n] is the count of the first n entries. A count that falls
// inside a batch is not in the map.
func commandPrefixes(script []cmd) (at map[uint64]int, sums []int) {
	at, sums = map[uint64]int{0: 0}, []int{0}
	for i, c := range script {
		w := 1
		if b, ok := c.body.(server.SubmitJobsRequest); ok {
			w = len(b.Jobs)
		}
		sums = append(sums, sums[i]+w)
		at[uint64(sums[i+1])] = i + 1
	}
	return at, sums
}

// TestCrashRecoverySealSweep crashes a durable server at every mutating
// filesystem operation — create, write, fsync, rename, remove, directory
// fsync — of one compaction that adds a history segment to a manifest
// already holding some, and of the command that triggered it, whose settle
// sealed that segment (three tasks seal every third round; SnapshotEvery
// 25 puts one compaction on such a round, after a batch), and of the
// command after it, the first to write to the journal segment that
// compaction opened. After each
// crash the directory must recover cleanly to a state of the
// uninterrupted reference run (acked ≤ recovered ≤ issued), serve ?from=0
// replays that are byte prefixes of the reference's, hold no orphan
// history file once the recovery boot has compacted, and carry the rest
// of the script to the reference's end, byte for byte. Every other round
// of the script releases its jobs as one jobs:batch: recovery counts such a
// record as its jobs, and a count inside one — a batch recovered in part —
// names no state of the reference run and fails the sweep. Each operation
// is swept twice: as a process crash, and as a power cut (faultfs
// PowerLoss, seeded by the operation), which loses what no fsync covered.
func TestCrashRecoverySealSweep(t *testing.T) {
	script := []cmd{
		{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "other", M: 1}},
		{"POST", "/v1/tenants/other/tasks", server.RegisterTaskRequest{Name: "o", E: 1, P: 3}},
	}
	script = sealLife(script, []string{"a", "b", "c"}, 1, 2, 14)
	script = append(script,
		cmd{"POST", "/v1/tenants/other/jobs", server.SubmitJobRequest{Task: "o"}},
		cmd{"POST", "/v1/tenants/other/advance", server.AdvanceRequest{By: "3"}},
		cmd{"POST", "/v1/tenants/X/drain", nil})
	script = batchOtherRounds(script)
	states, replay := referenceStates(t, script)
	opts := func(dir string, ffs *faultfs.FS) server.Options {
		o := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 25}
		if ffs != nil {
			o.FS = ffs
		}
		return o
	}

	// Dry run on a counting filesystem: find a command in the script's
	// second half that sealed a segment and compacted, and the operations
	// the two span — and those of the command before it, a batch, so that
	// the sweep also crashes inside a group record's write and fsync, and
	// of the command after it, the first record in the fresh segment.
	dryDir := t.TempDir()
	dry := faultfs.New(faultfs.Options{})
	srv, err := server.Open(opts(dryDir, dry))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, target := int64(0), int64(0), -1
	for i, c := range script {
		prev, before, snaps, files := lo, dry.Ops(), srv.WALStats().Snapshots, len(histFiles(t, dryDir))
		if code := doCmd(t, srv.Handler(), c); code >= 300 {
			t.Fatalf("dry-run command %d: %d", i, code)
		}
		if target < 0 {
			lo = before + 1 // the first operation of command i
			if i >= len(script)/2 && files > 0 &&
				srv.WALStats().Snapshots > snaps && len(histFiles(t, dryDir)) > files {
				lo, target = prev, i
			}
		} else if i == target+1 {
			hi = dry.Ops()
		}
	}
	srv.Close()
	if target < 0 || target+1 == len(script) {
		t.Fatalf("sealing and compacting command %d of %d: want one in the script's second half, with a command after it", target, len(script))
	}
	if _, batch := script[target-1].body.(server.SubmitJobsRequest); !batch {
		t.Fatalf("command %d, before the sealing one, is %s %s: the sweep would not cross a batch's write", target-1, script[target-1].method, script[target-1].path)
	}
	if hi-lo < 12 {
		t.Fatalf("commands %d to %d and the compaction span only %d filesystem operations", target-1, target+1, hi-lo+1)
	}

	// Every operation is swept as a process crash and as a power cut: at
	// FsyncEvery 1 an ack waits for its fsync, so under either model
	// recovery keeps every acked command and nothing beyond the issued.
	sweepCrashes(t, lo, lo, hi, func(t *testing.T, k int64, ffs *faultfs.FS) {
		dir := t.TempDir()
		srvA, err := server.Open(opts(dir, ffs))
		if err != nil {
			t.Fatalf("Open before the crash point: %v", err)
		}
		acked, issued := 0, 0 // script entries
		for _, c := range script {
			issued++
			if code := doCmd(t, srvA.Handler(), c); code >= 300 {
				break
			}
			acked++
		}
		_ = srvA.Close()
		if !ffs.Crashed() || acked < target-1 {
			t.Fatalf("crash at operation %d: crashed=%v after %d acked commands, want the crash at command %d or %d", k, ffs.Crashed(), acked, target-1, target)
		}

		recoverAndContinue(t, opts(dir, nil), script, states, replay, acked, issued)
	})
}

// recoverAndContinue opens the directory of a run of script that a crash
// cut off after acked of its entries were acknowledged and issued were
// sent, and checks what it recovered: a clean recovery to a whole script
// prefix within [acked, issued] — a count inside a batch names no state of
// the reference run — whose state is the reference's there (states, one
// per prefix, from referenceStates), whose ?from=0 replays are prefixes of
// the reference's, and which holds no orphan history file once the
// recovery boot has compacted; then it carries the rest of the script to
// the reference's end, byte for byte.
func recoverAndContinue(t *testing.T, o server.Options, script []cmd, states []serverState, replay map[string][]byte, acked, issued int) {
	t.Helper()
	prefixAt, commandsIn := commandPrefixes(script)
	srvB, err := server.Open(o)
	if err != nil {
		t.Fatalf("recovery Open after the crash: %v", err)
	}
	defer srvB.Close()
	rec := srvB.Recovery()
	if rec.ReplayErrors != 0 || rec.DispatchMismatches != 0 {
		t.Fatalf("recovery not clean: %d replay errors, %d dispatch mismatches", rec.ReplayErrors, rec.DispatchMismatches)
	}
	done, whole := prefixAt[rec.Commands]
	if !whole || done < acked || done > issued {
		t.Fatalf("recovered %d commands, which is not a whole script prefix within [acked %d, issued %d] (%d to %d commands)",
			rec.Commands, acked, issued, commandsIn[acked], commandsIn[issued])
	}
	want := states[done]
	assertStateEqual(t, "recovered vs reference prefix", captureState(t, srvB.Handler()), want)
	for id := range want.Infos {
		if got := dispatchBytes(t, srvB.Handler(), id); !bytes.HasPrefix(replay[id], got) {
			t.Fatalf("tenant %s: recovered ?from=0 replay (%d bytes) is not a prefix of the uncrashed run's", id, len(got))
		}
	}
	assertNoOrphans(t, o.DataDir)

	for i, c := range script[done:] {
		if code := doCmd(t, srvB.Handler(), c); code >= 300 {
			t.Fatalf("continuation command %d (%s %s): %d", done+i, c.method, c.path, code)
		}
	}
	assertStateEqual(t, "continuation vs reference final", captureState(t, srvB.Handler()), states[len(script)])
	for id, full := range replay {
		if got := dispatchBytes(t, srvB.Handler(), id); !bytes.Equal(got, full) {
			t.Fatalf("tenant %s: ?from=0 replay after recovery and continuation differs from the uncrashed run's", id)
		}
	}
}

// sweepCrashes runs run as a parallel subtest for each filesystem
// operation k from first to last, on a filesystem that crashes there:
// "opNN" (NN = k-base) as a process crash, "powerloss-opNN" as a power
// cut, seeded by k, which also loses what no fsync covered.
func sweepCrashes(t *testing.T, base, first, last int64, run func(t *testing.T, k int64, ffs *faultfs.FS)) {
	for _, powerLoss := range []bool{false, true} {
		for k := first; k <= last; k++ {
			name, crash := fmt.Sprintf("op%02d", k-base), faultfs.Options{CrashAtOp: k}
			if powerLoss {
				name, crash.PowerLoss, crash.Seed = "powerloss-"+name, true, k
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				run(t, k, faultfs.New(crash))
			})
		}
	}
}

// TestCrashRecoveryRecreatedTenantBeforeSnapshotRename deletes a tenant
// whose history is sealed and creates it again under the same id, with
// different tasks, between two compactions; then it sweeps a crash across
// every filesystem operation from the second life's last seal — the command
// whose settle wrote it, and the commands after it — to the end of the
// second compaction: in particular every step before the snapshot rename,
// while the first snapshot is still the directory's state. That snapshot
// must load each time with the files of the tenant's first life intact,
// whatever the second life wrote beside them, and the journal tail must
// replay the delete, the re-creation and the second life over it, to a
// whole prefix within [acked, issued] that the rest of the script carries
// to the uncrashed run's end. The server never compacts on its own here
// (SnapshotEvery is out of reach): the first compaction is the first run's
// Close, the second the second run's. The sweep runs as process crashes
// and again as power cuts.
func TestCrashRecoveryRecreatedTenantBeforeSnapshotRename(t *testing.T) {
	first := sealLife(nil, []string{"a", "b", "c", "d"}, 1, 2, 6)
	second := []cmd{{"POST", "/v1/tenants/X/drain", nil}, {"DELETE", "/v1/tenants/X", nil}}
	second = sealLife(second, []string{"p", "q", "r"}, 2, 3, 5)
	script := append(append([]cmd(nil), first...), second...)
	states, replay := referenceStates(t, script)

	// A directory after the first life and a clean shutdown.
	base := t.TempDir()
	opts := func(dir string, ffs *faultfs.FS) server.Options {
		o := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
		if ffs != nil {
			o.FS = ffs
		}
		return o
	}
	srv, err := server.Open(opts(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range first {
		if code := doCmd(t, srv.Handler(), c); code >= 300 {
			t.Fatalf("first life, command %d: %d", i, code)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	firstLife := histFiles(t, base)
	if len(firstLife) == 0 {
		t.Fatal("the first life sealed nothing; the test would prove nothing")
	}
	// secondRun copies the base directory, runs the second life on ffs —
	// calling each, if set, after every acknowledged command i with the
	// operation count before it — and closes the server: the compaction
	// under test. It returns the directory and how many of the second
	// life's commands were acknowledged and issued.
	secondRun := func(t *testing.T, ffs *faultfs.FS, each func(i int, dir string, before int64)) (dir string, acked, issued int) {
		dir = t.TempDir()
		copyDir(t, base, dir)
		srv, err := server.Open(opts(dir, ffs))
		if err != nil {
			t.Fatalf("Open for the second life: %v", err)
		}
		for i, c := range second {
			before := ffs.Ops()
			issued++
			if code := doCmd(t, srv.Handler(), c); code >= 300 {
				break
			}
			acked++
			if each != nil {
				each(i, dir, before)
			}
		}
		for f := range firstLife {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Fatalf("first-life file %s vanished before any compaction could drop it: %v", f, err)
			}
		}
		_ = srv.Close()
		return dir, acked, issued
	}

	// Dry run on a counting filesystem: the second life's last sealing
	// command, and the operations from its first to Close's last.
	dry := faultfs.New(faultfs.Options{})
	lo, closeLo, target, files := int64(0), int64(0), -1, len(firstLife)
	dryDir, acked, _ := secondRun(t, dry, func(i int, dir string, before int64) {
		if n := len(histFiles(t, dir)); n > files {
			lo, target, files = before+1, i, n
		}
		closeLo = dry.Ops()
	})
	hi := dry.Ops()
	if acked != len(second) || target < 0 {
		t.Fatalf("dry run: %d of %d second-life commands acknowledged, last seal at command %d; want all, and a seal", acked, len(second), target)
	}
	for f := range firstLife {
		if _, err := os.Stat(filepath.Join(dryDir, f)); !os.IsNotExist(err) {
			t.Fatalf("first-life file %s outlived the compaction that dropped its tenant (stat: %v)", f, err)
		}
	}
	if hi-closeLo < 12 {
		t.Fatalf("the closing compaction spans only %d filesystem operations", hi-closeLo)
	}

	// Under either crash model: at FsyncEvery 1 an ack waits for its
	// fsync, so recovery keeps every acked command and nothing beyond the
	// issued; a crash in Close comes after every command was acked.
	sweepCrashes(t, lo-1, lo, hi, func(t *testing.T, k int64, ffs *faultfs.FS) {
		dir, acked, issued := secondRun(t, ffs, nil)
		if !ffs.Crashed() || acked < target {
			t.Fatalf("crash at operation %d: crashed=%v after %d acked second-life commands, want the crash at command %d or later", k, ffs.Crashed(), acked, target)
		}
		recoverAndContinue(t, opts(dir, nil), script, states, replay, len(first)+acked, len(first)+issued)
		for f := range firstLife {
			if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
				t.Fatalf("first-life file %s survived the recovery boot's compaction (stat: %v)", f, err)
			}
		}
	})
}

// TestCrashRecoverySettleSealSweep crashes a durable server that never
// compacts on its own (SnapshotEvery 1<<30) at every mutating filesystem
// operation of a command whose settle seals the tenant's history — its
// journal records, then the history file's create, its writes (one per
// chunk), fsync and directory fsync — of the batch before it, and of the
// server's Close,
// whose compaction names the file in the snapshot; as a process crash and
// as a power cut. At FsyncEvery 1 recovery must bring
// back a whole script prefix within [acked, issued] under either model,
// its state and ?from=0 replay those of the uninterrupted run there, with
// no orphan file once the recovery boot has compacted — a file sealed
// before the crash and named by no snapshot is one — and carry the rest of
// the script to the reference's end, byte for byte.
func TestCrashRecoverySettleSealSweep(t *testing.T) {
	// A seal of 1 024 frames, two chunks; t.Cleanup, not defer: the
	// sweep's subtests run after this function returns.
	t.Cleanup(server.SetHistSegmentMin(1024))
	const tasks, period, rounds = 16, 8, 64 // 1 024 frames: the last advance seals them all
	script := []cmd{{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "S", M: 2}}}
	var batch server.SubmitJobsRequest
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%d", i)
		script = append(script, cmd{"POST", "/v1/tenants/S/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: period}})
		batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
	}
	for r := 0; r < rounds; r++ {
		script = append(script,
			cmd{"POST", "/v1/tenants/S/jobs:batch", batch},
			cmd{"POST", "/v1/tenants/S/advance", server.AdvanceRequest{By: fmt.Sprint(period)}})
	}
	states, replay := referenceStates(t, script)
	opts := func(dir string, ffs *faultfs.FS) server.Options {
		o := server.Options{DataDir: dir, FsyncEvery: 1, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
		if ffs != nil {
			o.FS = ffs
		}
		return o
	}
	// run drives the script on ffs and closes the server; it returns the
	// directory and how many script entries were acknowledged and issued.
	run := func(t *testing.T, ffs *faultfs.FS) (dir string, acked, issued int) {
		dir = t.TempDir()
		srv, err := server.Open(opts(dir, ffs))
		if err != nil {
			t.Fatalf("Open before the crash point: %v", err)
		}
		for _, c := range script {
			issued++
			if code := doCmd(t, srv.Handler(), c); code >= 300 {
				break
			}
			acked++
		}
		_ = srv.Close()
		return dir, acked, issued
	}

	// Dry run on a counting filesystem: the command whose settle sealed —
	// the last — and the operations from the first of the batch before it
	// to Close's last.
	dry := faultfs.New(faultfs.Options{})
	dryDir := t.TempDir()
	srv, err := server.Open(opts(dryDir, dry))
	if err != nil {
		t.Fatal(err)
	}
	lo, sealLo, target := int64(0), int64(0), -1
	for i, c := range script {
		before, files := dry.Ops(), len(histFiles(t, dryDir))
		if code := doCmd(t, srv.Handler(), c); code >= 300 {
			t.Fatalf("dry-run command %d: %d", i, code)
		}
		if target < 0 {
			if len(histFiles(t, dryDir)) > files {
				sealLo, target = before+1, i
			} else {
				lo = before + 1 // the first operation of command i
			}
		}
	}
	snaps := srv.WALStats().Snapshots
	srv.Close()
	hi := dry.Ops()
	if target != len(script)-1 || snaps != 1 {
		t.Fatalf("settle sealed at command %d of %d, after %d snapshots; want the last, and only the boot's snapshot before Close", target, len(script), snaps)
	}
	if _, batch := script[target-1].body.(server.SubmitJobsRequest); !batch {
		t.Fatalf("command %d, before the sealing one, is %s %s: the sweep would not cross a batch's write", target-1, script[target-1].method, script[target-1].path)
	}
	if files := histFiles(t, dryDir); len(files) != 1 || hi-sealLo < 16 {
		t.Fatalf("the run left history files %v, and the seal and Close span %d operations", files, hi-sealLo+1)
	}
	sweepCrashes(t, lo-1, lo, hi, func(t *testing.T, k int64, ffs *faultfs.FS) {
		dir, acked, issued := run(t, ffs)
		want := target // from the seal on, the batch before it was acked
		if k < sealLo {
			want = target - 1
		}
		if !ffs.Crashed() || acked < want {
			t.Fatalf("crash at operation %d: crashed=%v after %d acked commands, want the crash at command %d or later", k, ffs.Crashed(), acked, want)
		}
		recoverAndContinue(t, opts(dir, nil), script, states, replay, acked, issued)
	})
}

// pr13Script is the load whose end state testdata/snapshot_pr13.json
// holds, written by the parent commit's code: the whole dispatch log
// inline, every subtask ever released in the executive image, a backlog,
// idempotency keys, a resize, a rejection.
func pr13Script() []cmd {
	var sc []cmd
	add := func(method, path string, body any) { sc = append(sc, cmd{method, path, body}) }
	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "old", M: 2})
	add("POST", "/v1/tenants", server.CreateTenantRequest{ID: "idle", M: 1, Policy: "PD"})
	add("POST", "/v1/tenants/old/tasks", server.RegisterTaskRequest{Name: "a", E: 1, P: 2})
	add("POST", "/v1/tenants/old/tasks", server.RegisterTaskRequest{Name: "b", E: 2, P: 3})
	add("POST", "/v1/tenants/old/tasks", server.RegisterTaskRequest{Name: "c<&>", E: 1, P: 4})
	add("POST", "/v1/tenants/idle/tasks", server.RegisterTaskRequest{Name: "cron", E: 1, P: 4})
	for r := 0; r < 6; r++ {
		add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "a"})
		add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "b", Key: "b-" + string(rune('0'+r))})
		add("POST", "/v1/tenants/old/advance", server.AdvanceRequest{By: "3/2"})
		add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "c<&>", Earliness: 1})
		add("POST", "/v1/tenants/old/advance", server.AdvanceRequest{By: "1"})
	}
	add("POST", "/v1/tenants/old/resize", server.ResizeRequest{M: 3})
	// Leave a backlog: released, undispatched subtasks on every task.
	add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "a"})
	add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "b"})
	add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "b"})
	add("POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "c<&>"})
	add("POST", "/v1/tenants/old/advance", server.AdvanceRequest{By: "1/2"})
	add("POST", "/v1/tenants/idle/tasks", server.RegisterTaskRequest{Name: "big", E: 1, P: 1}) // rejected: 409
	return sc
}

// TestRestoreParentFormatSnapshot opens a data directory holding only a
// snapshot the parent commit wrote (inline log, untrimmed executive
// image). It must restore to exactly the state the script leaves on a
// live server, the boot compaction must convert it — history sealed into
// files, subtask sequences trimmed to the last dispatched one — and the
// converted directory must reopen to the same state and keep scheduling
// like the live server.
func TestRestoreParentFormatSnapshot(t *testing.T) {
	ref := server.New()
	for i, c := range pr13Script() {
		code := doCmd(t, ref.Handler(), c)
		if rejected := i == len(pr13Script())-1; (code >= 300) != rejected {
			t.Fatalf("reference command %d (%s %s): %d", i, c.method, c.path, code)
		}
	}
	want := captureState(t, ref.Handler())

	raw, err := os.ReadFile(filepath.Join("testdata", "snapshot_pr13.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"log":[`)) || bytes.Contains(raw, []byte(`"history"`)) {
		t.Fatal("testdata/snapshot_pr13.json is not in the parent's format")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := server.Open(server.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("Open on a parent-format directory: %v", err)
	}
	assertStateEqual(t, "restored parent-format snapshot", captureState(t, srv.Handler()), want)
	if got, full := dispatchBytes(t, srv.Handler(), "old"), dispatchBytes(t, ref.Handler(), "old"); !bytes.Equal(got, full) {
		t.Fatal("?from=0 replay of the restored tenant differs from the live server's")
	}

	snap, _ := readSnapshot(t, dir)
	converted := false
	for _, tn := range snap.Payload.Tenants {
		if tn.ID != "old" {
			continue
		}
		converted = true
		var sealed int64
		for _, seg := range tn.History {
			sealed += seg.Count
		}
		if sealed+int64(len(tn.Log)) != want.Infos["old"].Dispatches || sealed == 0 {
			t.Fatalf("after the boot compaction %d events are sealed and %d inline, of %d", sealed, len(tn.Log), want.Infos["old"].Dispatches)
		}
		for i, task := range tn.Exec.Tasks {
			if task.Cursor > 1 {
				t.Fatalf("task %d still carries its dispatched prefix (cursor %d of %d subtasks)", i, task.Cursor, len(task.Subs))
			}
		}
	}
	if !converted {
		t.Fatal("tenant old is missing from the converted snapshot")
	}
	assertNoOrphans(t, dir)

	// Both keep scheduling identically, across one more restart.
	more := []cmd{
		{"POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "b", Key: "b-5"}}, // a remembered key: deduped
		{"POST", "/v1/tenants/old/jobs", server.SubmitJobRequest{Task: "a"}},
		{"POST", "/v1/tenants/old/advance", server.AdvanceRequest{By: "5/2"}},
		{"POST", "/v1/tenants/idle/jobs", server.SubmitJobRequest{Task: "cron"}},
		{"POST", "/v1/tenants/idle/drain", nil},
		{"POST", "/v1/tenants/old/drain", nil},
	}
	for i, c := range more[:3] {
		if a, b := doCmd(t, ref.Handler(), c), doCmd(t, srv.Handler(), c); a != b || a >= 300 {
			t.Fatalf("continuation %d: live %d, restored %d", i, a, b)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = server.Open(server.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen of the converted directory: %v", err)
	}
	defer srv.Close()
	for i, c := range more[3:] {
		if a, b := doCmd(t, ref.Handler(), c), doCmd(t, srv.Handler(), c); a != b || a >= 300 {
			t.Fatalf("continuation %d: live %d, restored %d", 3+i, a, b)
		}
	}
	assertStateEqual(t, "converted directory after continuing", captureState(t, srv.Handler()), captureState(t, ref.Handler()))
}

var longDispatches = flag.Int("dispatches", 60_000,
	"dispatches TestLongTenantSnapshotsStayFlat pushes through its tenant, and TestInMemoryTenantBytesPerDispatch through its own when above 200000; TestIdemMemoryBytesPerKey fills one keyed tenant per 200000 (make longrun: 1000000)")

// TestLongTenantSnapshotsStayFlat is the bounded-state gate: one durable
// tenant at production's segment size, -dispatches decisions at a
// compaction every 1024 records. What a tenant costs must not depend on
// how long it has lived: snapshot.json's size, the bytes written between
// consecutive compactions and the heap in use after a collection, averaged
// over the last quarter of the run, stay within 1.25× of the first quarter
// after warm-up (and so do their maxima; the heap, which is this whole test
// process's, gets 1 MB of slack), while the whole history stays readable
// from seq 0 — live and after a restart. With -v every 16th compaction's
// numbers and pause are logged.
func TestLongTenantSnapshotsStayFlat(t *testing.T) {
	defer server.SetHistSegmentMin(4096)()
	const tasks, period = 16, 8
	dir := t.TempDir()
	ffs := faultfs.New(faultfs.Options{}) // no faults: it counts the bytes written
	open := func() *server.Server {
		srv, err := server.Open(server.Options{
			DataDir: dir, FS: ffs, FsyncEvery: 64, FsyncMaxDelay: -1, SnapshotEvery: 1024,
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	h := srv.Handler()
	must := func(c cmd) {
		t.Helper()
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	must(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "long", M: 2}})
	var batch server.SubmitJobsRequest
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%d", i)
		must(cmd{"POST", "/v1/tenants/long/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: period}})
		batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
	}

	type compaction struct {
		snapshot, written int64 // snapshot.json bytes; bytes written since the previous compaction
		heap              int64 // runtime.MemStats.HeapInuse after a collection
		pause             time.Duration
	}
	var seen []compaction
	var heap runtime.MemStats
	snaps, written := srv.WALStats().Snapshots, ffs.BytesWritten()
	rounds := (*longDispatches + tasks - 1) / tasks
	for r := 0; r < rounds; r++ {
		must(cmd{"POST", "/v1/tenants/long/jobs:batch", batch})
		t0 := time.Now()
		must(cmd{"POST", "/v1/tenants/long/advance", server.AdvanceRequest{By: fmt.Sprint(period)}})
		if n := srv.WALStats().Snapshots; n > snaps {
			pause := time.Since(t0)
			_, size := readSnapshot(t, dir)
			w := ffs.BytesWritten()
			runtime.GC()
			runtime.ReadMemStats(&heap)
			c := compaction{size, w - written, int64(heap.HeapInuse), pause}
			seen = append(seen, c)
			snaps, written = n, w
			if testing.Verbose() && len(seen)%16 == 0 {
				t.Logf("compaction %4d at %7d dispatches: snapshot %7d B, %8d B written since the last, pause ≤ %v, heap in use %d KB",
					len(seen), (r+1)*tasks, c.snapshot, c.written, c.pause.Round(10*time.Microsecond), c.heap>>10)
			}
		}
	}
	total := int64(rounds * tasks)

	warm := len(seen) / 10
	q := (len(seen) - warm) / 4
	if q < 12 {
		t.Fatalf("only %d compactions; too few to compare quarters", len(seen))
	}
	stat := func(cs []compaction, f func(compaction) int64) (mean, max float64) {
		for _, c := range cs {
			v := float64(f(c))
			mean += v / float64(len(cs))
			if v > max {
				max = v
			}
		}
		return mean, max
	}
	first, last := seen[warm:warm+q], seen[len(seen)-q:]
	for _, m := range []struct {
		name  string
		slack float64
		f     func(compaction) int64
	}{
		{"snapshot.json bytes", 0, func(c compaction) int64 { return c.snapshot }},
		{"bytes written per compaction interval", 0, func(c compaction) int64 { return c.written }},
		{"heap in use after GC", 1 << 20, func(c compaction) int64 { return c.heap }},
	} {
		m0, x0 := stat(first, m.f)
		m1, x1 := stat(last, m.f)
		t.Logf("%s: first quarter mean %.0f max %.0f, last quarter mean %.0f max %.0f (%d compactions, %d dispatches)",
			m.name, m0, x0, m1, x1, len(seen), total)
		if m1 > 1.25*m0+m.slack || x1 > 1.25*x0+m.slack {
			t.Errorf("%s grew with history: first quarter mean %.0f max %.0f, last quarter mean %.0f max %.0f", m.name, m0, x0, m1, x1)
		}
	}
	snap, size := readSnapshot(t, dir)
	manifest := snap.Payload.Tenants[0].History
	if n := len(manifest); int64(n) > total/4096 || n == 0 {
		t.Errorf("manifest holds %d segments for %d dispatches; want one per ≥ 4096 events", n, total)
	}
	// /metrics describes that snapshot and counts every compaction.
	var sealedBytes int64
	for _, seg := range manifest {
		sealedBytes += seg.Bytes
	}
	if got := metricValue(t, h, "pfaird_history_segments"); got != int64(len(manifest)) {
		t.Errorf("pfaird_history_segments = %d, the manifest holds %d", got, len(manifest))
	}
	if got := metricValue(t, h, "pfaird_history_bytes"); got != sealedBytes || got == 0 {
		t.Errorf("pfaird_history_bytes = %d, the manifest adds up to %d", got, sealedBytes)
	}
	if got := metricValue(t, h, "pfaird_snapshot_bytes"); got <= 0 || got >= size {
		t.Errorf("pfaird_snapshot_bytes = %d, snapshot.json is %d bytes with its envelope", got, size)
	}
	if got := metricValue(t, h, "pfaird_compact_seconds_count"); got != int64(srv.WALStats().Snapshots) {
		t.Errorf("pfaird_compact_seconds_count = %d after %d snapshots", got, srv.WALStats().Snapshots)
	}

	// History is all there, from seq 0, before and after a restart.
	live := dispatchBytes(t, h, "long")
	if n := int64(bytes.Count(live, []byte{'\n'})); n != total {
		t.Fatalf("?from=0 replays %d events, want %d", n, total)
	}
	if !bytes.HasPrefix(live, []byte(`{"seq":0,`)) {
		t.Fatalf("replay starts with %.40s", live)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv = open()
	defer srv.Close()
	if !bytes.Equal(dispatchBytes(t, srv.Handler(), "long"), live) {
		t.Fatal("?from=0 replay after a restart differs from the live server's")
	}
	assertNoOrphans(t, dir)
}

// heapInUse is the heap in use after two collections.
func heapInUse() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapInuse)
}

// TestInMemoryTenantBytesPerDispatch bounds what an in-memory tenant, which
// keeps its whole history, retains per decision: past the open tail, the
// compact record, a 32nd of an offset, and nothing else — no wire frame,
// no event struct, no assignment, no subtask. 6 B leaves the ≈ 3.6 B
// record of this workload, whose index is coded as a residual of its
// window, some slack for the chunk it fills and the bounded state the
// tenant grows once (the heap reads ≈ 5.3 B at 200 000 decisions, ≈ 4 B
// at 10⁶); the record that
// coded the raw index would not fit (the heap read ≈ 7.7 B), nor the
// ≈ 22 B one with a 4 B offset per decision before it, nor its ≈ 113 B
// wire frame. It logs 200 000 decisions, or -dispatches when more.
func TestInMemoryTenantBytesPerDispatch(t *testing.T) {
	const tasks, period = 16, 8
	rounds := max(*longDispatches, 200_000) / tasks
	tn, err := server.NewTenant("mem", 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	var batch []server.SubmitJobRequest
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, _, err := tn.RegisterTask(name, model.W(1, period)); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, server.SubmitJobRequest{Task: name})
	}
	round := func() {
		if _, _, err := tn.SubmitJobs(batch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := tn.Advance("", fmt.Sprint(period)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 100; r++ { // past the first chunk's doubling
		round()
	}
	before, from := heapInUse(), tn.Info().Dispatches
	for r := 0; r < rounds; r++ {
		round()
	}
	grew, n := heapInUse()-before, tn.Info().Dispatches-from
	per := float64(grew) / float64(n)
	t.Logf("%d dispatches grew the heap in use by %d B: %.1f B/dispatch", n, grew, per)
	if n != int64(tasks*rounds) || per > 6 {
		t.Fatalf("an in-memory tenant retains %.1f B per dispatch over %d dispatches; want ≤ 6", per, n)
	}
}

// TestJournaledTenantBytesPerDispatch bounds what a journaled tenant that
// no compaction checkpoints — a durable server at SnapshotEvery 1<<30,
// production's segment size — retains per decision: it seals its history
// into a file every 4096 decisions, so nothing of a decision stays in
// memory past the next seal, and the heap must not grow with the log; 12
// B, as for an in-memory tenant, where each ≈ 113 B wire frame would be
// ten times that. It logs 200 000 decisions, or -dispatches when more,
// through the server's handler.
func TestJournaledTenantBytesPerDispatch(t *testing.T) {
	defer server.SetHistSegmentMin(4096)()
	const tasks, period = 16, 8
	rounds := max(*longDispatches, 200_000) / tasks
	srv, err := server.Open(server.Options{
		DataDir: t.TempDir(), FsyncEvery: 64, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	must := func(c cmd) {
		t.Helper()
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	must(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "jour", M: 2}})
	var batch server.SubmitJobsRequest
	for i := 0; i < tasks; i++ {
		name := fmt.Sprintf("t%d", i)
		must(cmd{"POST", "/v1/tenants/jour/tasks", server.RegisterTaskRequest{Name: name, E: 1, P: period}})
		batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: name})
	}
	round := func() {
		must(cmd{"POST", "/v1/tenants/jour/jobs:batch", batch})
		must(cmd{"POST", "/v1/tenants/jour/advance", server.AdvanceRequest{By: fmt.Sprint(period)}})
	}
	for r := 0; r < 1000; r++ { // 16 000 decisions: past the first seal, and the trace ring full
		round()
	}
	tn := srv.Tenant("jour")
	before, from, snaps := heapInUse(), tn.Info().Dispatches, srv.WALStats().Snapshots
	for r := 0; r < rounds; r++ {
		round()
	}
	grew, n := heapInUse()-before, tn.Info().Dispatches-from
	per := float64(grew) / float64(n)
	t.Logf("%d dispatches grew the heap in use by %d B: %.1f B/dispatch; %d B resident", n, grew, per, tn.ResidentBytes())
	if srv.WALStats().Snapshots != snaps {
		t.Fatal("the server compacted: the test measured nothing")
	}
	if n != int64(tasks*rounds) || per > 12 {
		t.Fatalf("a journaled tenant retains %.1f B per dispatch over %d dispatches; want ≤ 12", per, n)
	}
}

// TestIdemMemoryBytesPerKey bounds what a tenant's idempotency memory
// holds per remembered key: ≤ 48 B, where a map and a FIFO of strings held
// ≈ 134. Each keyed tenant is sent MaxIdemKeys and half as many again keyed
// submits, so its memory is full and has evicted, and a plain tenant the
// same submits unkeyed; the live heap each group grows by differs by what
// the keys cost. One pair of tenants, or one per 200 000 -dispatches (make
// longrun: five, 20 480 keys).
func TestIdemMemoryBytesPerKey(t *testing.T) {
	tenants := max(1, *longDispatches/200_000)
	srv := server.New()
	defer srv.Close()
	h := srv.Handler()
	must := func(c cmd) {
		t.Helper()
		if code := doCmd(t, h, c); code >= 300 {
			t.Fatalf("%s %s: %d", c.method, c.path, code)
		}
	}
	for i := 0; i < tenants; i++ {
		for _, id := range []string{fmt.Sprintf("keyed%d", i), fmt.Sprintf("plain%d", i)} {
			must(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: id, M: 1}})
			must(cmd{"POST", "/v1/tenants/" + id + "/tasks", server.RegisterTaskRequest{Name: "a", E: 1, P: 2}})
			must(cmd{"POST", "/v1/tenants/" + id + "/jobs", server.SubmitJobRequest{Task: "a"}})
		}
	}
	submits := server.MaxIdemKeys + server.MaxIdemKeys/2
	grow := func(prefix string, keyed bool) int64 {
		before := liveHeap()
		for i := 0; i < tenants; i++ {
			path := fmt.Sprintf("/v1/tenants/%s%d/jobs:batch", prefix, i)
			for j := 0; j < submits; j += server.MaxBatchJobs {
				var batch server.SubmitJobsRequest
				for k := j; k < min(j+server.MaxBatchJobs, submits); k++ {
					batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: "a"})
					if keyed {
						batch.Jobs[len(batch.Jobs)-1].Key = fmt.Sprintf("r%dj%d", k, i)
					}
				}
				must(cmd{"POST", path, batch})
			}
		}
		return liveHeap() - before
	}
	keyed := grow("keyed", true)
	plain := grow("plain", false)
	keys := tenants * server.MaxIdemKeys
	per := float64(keyed-plain) / float64(keys)
	t.Logf("%d keyed submits to %d tenants grew the live heap by %d B, unkeyed ones by %d B: %.1f B per remembered key", tenants*submits, tenants, keyed, plain, per)
	if per > 48 {
		t.Fatalf("the idempotency memory holds %.1f B per key over %d keys; want ≤ 48", per, keys)
	}
}

// liveHeap is the heap allocated and still live after two collections.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestJournaledTenantSealsWithoutCompaction drives a journaled tenant on a
// durable server that never compacts (SnapshotEvery 1<<30) through more
// than ten segments' worth of decisions, in commands of uneven size. After
// every command it holds fewer than histSegmentMin decisions in memory:
// settle seals the rest into history files, with no snapshot taken. Its
// ?from=0 stream is byte-identical to an in-memory tenant's fed the same
// commands — live, and after a restart whose boot compaction names the
// files.
func TestJournaledTenantSealsWithoutCompaction(t *testing.T) {
	const seg = 256
	defer server.SetHistSegmentMin(seg)()
	dir := t.TempDir()
	opts := server.Options{DataDir: dir, FsyncEvery: 64, FsyncMaxDelay: -1, SnapshotEvery: 1 << 30}
	srv, err := server.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	mem := server.New()
	var tn *server.Tenant
	do := func(c cmd) {
		t.Helper()
		if a, b := doCmd(t, srv.Handler(), c), doCmd(t, mem.Handler(), c); a >= 300 || a != b {
			t.Fatalf("%s %s: durable %d, in memory %d", c.method, c.path, a, b)
		}
		if tn != nil && tn.ResidentEvents() >= seg {
			t.Fatalf("after %s %s the tenant holds %d decisions in memory; want fewer than %d", c.method, c.path, tn.ResidentEvents(), seg)
		}
	}
	do(cmd{"POST", "/v1/tenants", server.CreateTenantRequest{ID: "J", M: 4}})
	tn = srv.Tenant("J")
	var names []string
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("task-%d", i))
		do(cmd{"POST", "/v1/tenants/J/tasks", server.RegisterTaskRequest{Name: names[i], E: 1, P: 4}})
	}
	for r := 0; tn.Info().Dispatches < 10*seg+seg/2; r++ {
		k := 1 + r%5 // one to five jobs per task, some commands past seg decisions
		if r%7 == 6 {
			k = 50
		}
		var batch server.SubmitJobsRequest
		for _, n := range names {
			for j := 0; j < k; j++ {
				batch.Jobs = append(batch.Jobs, server.SubmitJobRequest{Task: n})
			}
		}
		do(cmd{"POST", "/v1/tenants/J/jobs:batch", batch})
		do(cmd{"POST", "/v1/tenants/J/advance", server.AdvanceRequest{By: fmt.Sprint(4 * k)}})
	}
	if n := srv.WALStats().Snapshots; n != 1 {
		t.Fatalf("%d snapshots; want only the boot's", n)
	}
	if files := histFiles(t, dir); len(files) < 3 {
		t.Fatalf("%d history files for %d decisions", len(files), tn.Info().Dispatches)
	}
	want := dispatchBytes(t, mem.Handler(), "J")
	if got := dispatchBytes(t, srv.Handler(), "J"); !bytes.Equal(got, want) {
		t.Fatal("?from=0 of the journaled tenant differs from the in-memory tenant's")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = server.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := dispatchBytes(t, srv.Handler(), "J"); !bytes.Equal(got, want) {
		t.Fatal("?from=0 after a restart differs from the in-memory tenant's")
	}
	assertNoOrphans(t, dir)
}
