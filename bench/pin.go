package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already bound itself to one CPU.
const pinnedEnv = "PFAIR_BENCH_CPU"

// pinToOneCPU binds the benchmark, and with it every server it starts, to
// the highest-numbered CPU it is allowed to run on, and re-executes itself
// so the Go runtime sizes itself for that one CPU. Every workload but one
// is a single closed loop — client, server, client — so a second CPU runs
// nothing in parallel; what it adds on a virtual machine is a cross-CPU
// wake-up per hop, whose cost is the host's, not the program's, and swings
// with the neighbours. On one CPU the same requests run faster and several
// times steadier (README.md, "Steadiness"). If the affinity calls fail the
// run goes on unpinned and says so in its environment line.
func pinToOneCPU() string {
	if cpu := os.Getenv(pinnedEnv); cpu != "" {
		return cpu
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64 // 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return "none"
	}
	cpu := -1
	for i, word := range mask {
		for b := 0; b < 64; b++ {
			if word&(1<<b) != 0 {
				cpu = i*64 + b
			}
		}
	}
	if cpu < 0 {
		return "none"
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return "none"
	}
	// The affinity set above is this thread's; exec keeps it for the new
	// image's first thread, and every later thread and child inherits it.
	exe, err := os.Executable()
	if err != nil {
		return "none"
	}
	_ = syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"="+strconv.Itoa(cpu)))
	return "none"
}
