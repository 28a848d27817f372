package main

import (
	"runtime"
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// pinThread wires the calling goroutine to its thread for good (the
// thread exits with it) and cuts the thread's timer slack from the
// default 50 µs to 1 ns, so nanosleep wakes within microseconds. The
// runtime's own timers round sub-millisecond sleeps up to about a
// millisecond when a P is idle, which would make the pacer dominate
// what it measures.
func pinThread() error {
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0); errno != 0 {
		return errno
	}
	return nil
}

// nanosleep blocks the calling thread for about d. An early wake-up
// (EINTR) is harmless: the pacer re-checks the clock.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
