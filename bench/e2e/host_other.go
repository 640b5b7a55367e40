//go:build !linux

package main

import "time"

var monoStart = time.Now()

// threadCPUTime falls back to the monotonic clock where the OS offers no
// per-thread CPU clock to this package; the speed probe then also reads a
// descheduled chunk as a slow host.
func threadCPUTime() time.Duration { return time.Since(monoStart) }

// sleeper falls back to time.Sleep, with its timer resolution.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (s *sleeper) close() error { return nil }
