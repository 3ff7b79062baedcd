package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverSpec says how one pfaird is started. Everything not named here
// stays at pfaird's shipped default, which is the point of the benchmark.
type serverSpec struct {
	dataDir       string // "" = in-memory
	snapshotEvery int    // 0 = pfaird's default (4096)
	follow        string // leader base URL; "" = leader
}

// node is one running server, however it was started. The workloads see
// only this, so the smoke test can substitute in-process servers.
type node struct {
	url     string
	pid     int    // 0 for an in-process node
	cmdline string // recorded in the output ("every server flag")
	dataDir string
	// kill ends the node the way a crash would: no drain, no final
	// snapshot. It returns once the node is gone.
	kill func()
}

// launcher starts servers. procLauncher runs the real binaries; the smoke
// test has an in-process one.
type launcher interface {
	pfaird(spec serverSpec) (*node, error)
	router(backends string) (*node, error)
}

// procLauncher starts pfaird and pfair-router as separate processes on
// ephemeral loopback ports, each in its own process group.
type procLauncher struct {
	binDir string

	mu    sync.Mutex
	procs map[int]*exec.Cmd
}

func newProcLauncher(binDir string) *procLauncher {
	return &procLauncher{binDir: binDir, procs: map[int]*exec.Cmd{}}
}

func (l *procLauncher) pfaird(spec serverSpec) (*node, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if spec.dataDir != "" {
		args = append(args, "-data-dir", spec.dataDir)
	}
	if spec.snapshotEvery > 0 {
		args = append(args, "-snapshot-every", strconv.Itoa(spec.snapshotEvery))
	}
	if spec.follow != "" {
		args = append(args, "-follow", spec.follow)
	}
	n, err := l.start("pfaird", args)
	if err != nil {
		return nil, err
	}
	n.dataDir = spec.dataDir
	return n, nil
}

func (l *procLauncher) router(backends string) (*node, error) {
	return l.start("pfair-router", []string{"-addr", "127.0.0.1:0", "-backends", backends})
}

// start launches one binary and waits for its "listening on" log line,
// which carries the ephemeral port the kernel picked.
func (l *procLauncher) start(name string, args []string) (*node, error) {
	cmd := exec.Command(filepath.Join(l.binDir, name), args...)
	// Own process group, so killAll reaches anything the server spawns;
	// Pdeathsig covers the case where this process is itself SIGKILLed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	l.mu.Lock()
	l.procs[cmd.Process.Pid] = cmd
	l.mu.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		// Keep draining after the address is found: a full pipe would
		// block the server's logger.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr := strings.Fields(line[i+len("listening on "):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		close(addrCh)
	}()
	n := &node{pid: cmd.Process.Pid, cmdline: name + " " + strings.Join(args, " ")}
	n.kill = func() { l.killOne(cmd) }
	select {
	case addr, ok := <-addrCh:
		if !ok {
			n.kill()
			return nil, fmt.Errorf("%s exited before listening", name)
		}
		n.url = "http://" + addr
	case <-time.After(10 * time.Second):
		n.kill()
		return nil, fmt.Errorf("%s did not report a listen address within 10s", name)
	}
	return n, nil
}

func (l *procLauncher) killOne(cmd *exec.Cmd) {
	l.mu.Lock()
	_, live := l.procs[cmd.Process.Pid]
	delete(l.procs, cmd.Process.Pid)
	l.mu.Unlock()
	if !live {
		return
	}
	_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // the whole group; ESRCH if already gone
	_ = cmd.Wait()                                      // reaps; the exit status of a killed server is not news
}

// killAll ends every process this launcher still has running.
func (l *procLauncher) killAll() {
	l.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(l.procs))
	for _, c := range l.procs {
		cmds = append(cmds, c)
	}
	l.mu.Unlock()
	for _, c := range cmds {
		l.killOne(c)
	}
}

// waitHealthy polls /healthz until it answers 200. A follower answers 503
// while it bootstraps, so this also waits for a replica to catch up.
func waitHealthy(ctx context.Context, hc *http.Client, url string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 15s (last error: %v)", url, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// --- /proc readers (0 for in-process nodes and off Linux) ---

// cpuSeconds is utime+stime of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64) // field 14
	st, _ := strconv.ParseFloat(f[12], 64) // field 15
	const userHz = 100                     // USER_HZ is 100 on every Linux ABI Go supports
	return (ut + st) / userHz
}

// statusKB reads one "Vm...: N kB" line of /proc/<pid>/status.
func statusKB(pid int, key string) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line[len(key)+1:])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil // a file compacted away mid-walk is not an error
	})
	return n
}

// fsType names the filesystem holding dir, for the output's environment
// block: fsync cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
