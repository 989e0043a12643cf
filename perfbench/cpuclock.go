//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The clocks of clock_gettime(2) the benchmark reads.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// readCPU returns the CPU time every thread of this process has used so
// far, with nanosecond resolution. Under a paravirtualised kernel it
// leaves out time the hypervisor stole from the vCPUs, and it never
// counts time spent waiting for a CPU, so the timings built on it do not
// move with the load other guests put on the host.
func readCPU() (time.Duration, error) { return readClock(clockProcessCPU) }

// readClock reads one clock of clock_gettime(2).
func readClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(%d): %w", id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuNow is readCPU for callers that run after runWorkload found the
// clocks working; they can only fail then if the kernel broke.
func cpuNow() time.Duration { return mustRead(clockProcessCPU) }

// threadCPUNow is the CPU time the calling thread has used so far.
func threadCPUNow() time.Duration { return mustRead(clockThreadCPU) }

func mustRead(id uintptr) time.Duration {
	d, err := readClock(id)
	if err != nil {
		panic(err)
	}
	return d
}
