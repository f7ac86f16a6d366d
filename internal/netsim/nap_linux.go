package netsim

import (
	"syscall"
	"time"
)

// nap blocks the calling thread in nanosleep(2), which the kernel wakes
// with hrtimer precision. Go's own timers, time.Sleep included, fire
// when the idle runtime's epoll_wait times out, and that timeout is in
// whole milliseconds: a 300 µs link would cost 1.1 ms. An early return
// (EINTR) is harmless, the scheduler re-checks the due time.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}
