//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time all threads of this process have run so
// far. On a virtual machine whose kernel accounts steal time, the time
// the host runs other guests on this guest's vCPUs is not counted, nor
// is time spent waiting for I/O, the network, or another process on
// the same CPU: of the figures the benchmark reports, this clock moves
// only with the work the program does.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
