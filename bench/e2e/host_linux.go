package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock and timerfd constants the syscall package does not name.
const (
	clockMonotonic     = 1
	clockThreadCPUTime = 3
	tfdNonblock        = syscall.O_NONBLOCK
	tfdCloexec         = syscall.O_CLOEXEC
)

// threadCPUTime is the CPU time the calling OS thread has used.
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sleeper wakes the open-loop generator on time. time.Sleep wakes an idle
// process through epoll, whose timeout has millisecond resolution, which
// made the generator half a millisecond late at the median. A timerfd is
// read through the same netpoller, so the waiting goroutine still gives up
// its P to the requests it just started, but epoll returns the moment the
// timer fires.
type sleeper struct {
	// fd is kept apart from f: File.Fd would switch the file to blocking
	// reads, which hold the P.
	fd uintptr
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d.
func (s *sleeper) sleep(d time.Duration) error {
	if d <= 0 {
		return nil // a zero timer value disarms the timer instead
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() error { return s.f.Close() }
