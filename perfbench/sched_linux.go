package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// realtime moves every thread of this process to the SCHED_FIFO
// real-time class, or back to the normal class, and reports whether
// the kernel allowed it. The load generator shares its CPUs with the
// server it loads; at real-time priority its dispatcher and connection
// threads run the moment they wake, so a burst of server work does not
// make arrivals late or stretch the clock readings of a response. The
// generator sleeps or blocks between requests and uses a small share
// of one CPU, so the server loses little to it. Threads started later
// inherit the class of the thread that starts them.
func realtime(on bool) bool {
	policy, prio := uintptr(0), int32(0) // SCHED_OTHER
	if on {
		policy, prio = 1, 10 // SCHED_FIFO
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return false
	}
	ok := true
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), policy, uintptr(unsafe.Pointer(&prio))); e != 0 {
			ok = false
		}
	}
	return ok
}
