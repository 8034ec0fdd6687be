// Package sim provides the simulation substrate shared by every hardware
// model in this repository: a virtual clock for deterministic latency
// accounting and a deterministic random source for reproducible runs.
//
// The reproduction target (DSN 2011 uni-directional trusted path) reports
// times dominated by TPM command latencies and DRTM late-launch costs —
// millisecond-to-second scale hardware operations that a Go process cannot
// perform natively. Rather than sleeping on the wall clock, hardware models
// charge their modelled cost to a Clock. A VirtualClock advances instantly,
// making experiments deterministic and fast while preserving every reported
// duration; a WallClock can be swapped in for interactive demos.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Clock abstracts the passage of time for simulated hardware.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current simulated (or real) time.
	Now() time.Time

	// Sleep advances time by d. On a VirtualClock this is instantaneous;
	// on a WallClock it blocks.
	Sleep(d time.Duration)
}

// Epoch is the instant at which every VirtualClock starts. A fixed epoch
// keeps logs and golden outputs reproducible across runs.
var Epoch = time.Date(2011, time.June, 27, 9, 0, 0, 0, time.UTC)

// VirtualClock is a manually advanced clock. Sleeps complete immediately but
// move the clock forward, so accumulated durations reflect the modelled
// hardware cost exactly.
//
// The zero value is not ready for use; construct with NewVirtualClock.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time

	slept time.Duration
}

var _ Clock = (*VirtualClock)(nil)

// NewVirtualClock returns a VirtualClock starting at Epoch.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{now: Epoch}
}

// NewVirtualClockAt returns a VirtualClock starting at the given instant.
func NewVirtualClockAt(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the virtual clock by d without blocking. Negative
// durations are ignored so that callers may pass raw subtraction results.
func (c *VirtualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.slept += d
}

// Elapsed reports how much virtual time has passed since the clock was
// created (i.e. the sum of all Sleep calls).
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}

// WallClock delegates to the real time package. Use it for interactive
// demos where the modelled latencies should actually be felt.
type WallClock struct{}

var _ Clock = WallClock{}

// Now returns time.Now().
func (WallClock) Now() time.Time { return time.Now() }

// Sleep blocks for d via time.Sleep.
func (WallClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

// Stopwatch measures elapsed time on an arbitrary Clock.
type Stopwatch struct {
	clock Clock
	start time.Time
}

// NewStopwatch starts a stopwatch on the given clock.
func NewStopwatch(clock Clock) *Stopwatch {
	return &Stopwatch{clock: clock, start: clock.Now()}
}

// Elapsed returns the time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration {
	return s.clock.Now().Sub(s.start)
}

// Restart resets the stopwatch to the current instant and returns the
// duration that had elapsed before the reset.
func (s *Stopwatch) Restart() time.Duration {
	now := s.clock.Now()
	d := now.Sub(s.start)
	s.start = now
	return d
}

// FormatDuration renders a duration with millisecond precision, the
// granularity used throughout the experiment tables.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Microseconds())/1000.0)
}
