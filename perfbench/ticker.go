package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// ticker is a periodic Linux timerfd read through the runtime's network
// poller. Go's own timers fire on the poller's ~1 ms timeout grid when
// the process is idle, which at a 1 ms period bunches and skips sends;
// a timerfd wakes the waiting goroutine at its expiry without holding a
// scheduler thread while it waits.
type ticker struct {
	f     *os.File
	start time.Time // first expiry
}

type itimerspec struct {
	interval, value syscall.Timespec
}

func newTicker(period time.Duration) (*ticker, error) {
	const (
		clockMonotonic = 1
		tfdNonblock    = syscall.O_NONBLOCK
		tfdCloexec     = syscall.O_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	spec := itimerspec{
		interval: syscall.NsecToTimespec(int64(period)),
		value:    syscall.NsecToTimespec(int64(period)),
	}
	start := time.Now().Add(period)
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, fmt.Errorf("timerfd_settime: %w", errno)
	}
	return &ticker{f: os.NewFile(fd, "timerfd"), start: start}, nil
}

// wait blocks until the next expiry and returns how many periods have
// expired since the previous wait (more than 1 when the reader is late).
func (t *ticker) wait() (uint64, error) {
	var buf [8]byte
	if _, err := t.f.Read(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func (t *ticker) close() { t.f.Close() }
