// Package vclock is the clock seam for the serving layer: production
// code runs on the real time package, tests swap in a deterministic
// fake whose Advance method fires timers synchronously. Only the one
// operation the server needs is modelled: AfterFunc, which
// ContextWithTimeout builds the request deadline on.
package vclock

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts the passage of time.
type Clock interface {
	// AfterFunc runs f in its own goroutine once d has elapsed; the
	// returned Timer cancels the call if it has not fired yet.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the stoppable handle returned by AfterFunc.
type Timer interface {
	// Stop reports whether the call was prevented from firing.
	Stop() bool
}

// Real is the production clock backed by package time.
type Real struct{}

func (Real) AfterFunc(d time.Duration, f func()) Timer {
	return time.AfterFunc(d, f)
}

// System returns the clock to use when cfg leaves it nil.
func System(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}

// ContextWithTimeout derives a context cancelled with cause
// context.DeadlineExceeded once d elapses on clock. It is the
// clock-injected analogue of context.WithTimeout: callers distinguish
// the deadline from an ordinary cancellation via context.Cause.
func ContextWithTimeout(parent context.Context, clock Clock, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	t := clock.AfterFunc(d, func() { cancel(context.DeadlineExceeded) })
	return ctx, func() {
		t.Stop()
		cancel(context.Canceled)
	}
}

// Fake is a manually-advanced clock for deterministic deadline and
// queue-wait tests. The zero value starts at an arbitrary fixed epoch.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
	seq    int
}

type fakeTimer struct {
	clock   *Fake
	at      time.Time
	seq     int // FIFO tie-break for equal deadlines
	f       func()
	stopped bool
	fired   bool
}

// NewFake returns a fake clock starting at a fixed, arbitrary instant.
func NewFake() *Fake {
	return &Fake{now: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *Fake) AfterFunc(d time.Duration, f func()) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{clock: c, at: c.now.Add(d), seq: c.seq, f: f}
	c.seq++
	c.timers = append(c.timers, t)
	if d <= 0 {
		c.fireLocked()
	}
	return t
}

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Advance moves the clock forward and fires every timer whose deadline
// has been reached, in deadline order (FIFO on ties). Callbacks run
// synchronously on the caller's goroutine, so when Advance returns the
// effects of every due timer are visible.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.fireLocked()
	c.mu.Unlock()
}

func (c *Fake) fireLocked() {
	sort.SliceStable(c.timers, func(i, j int) bool {
		if !c.timers[i].at.Equal(c.timers[j].at) {
			return c.timers[i].at.Before(c.timers[j].at)
		}
		return c.timers[i].seq < c.timers[j].seq
	})
	for len(c.timers) > 0 {
		t := c.timers[0]
		if t.at.After(c.now) {
			break
		}
		c.timers = c.timers[1:]
		if t.stopped {
			continue
		}
		t.fired = true
		// Release the lock for the callback: deadline callbacks cancel
		// contexts, whose waiters may immediately re-enter the clock
		// (e.g. to stop a sibling timer).
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
}

// Pending reports how many timers are scheduled and not yet fired or
// stopped — tests use it to assert deadline timers are cleaned up.
func (c *Fake) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.stopped && !t.fired {
			n++
		}
	}
	return n
}
