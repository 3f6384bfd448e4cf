package vclock

import (
	"context"
	"testing"
	"time"
)

func TestFakeAfterFiresInOrder(t *testing.T) {
	c := NewFake()
	var order []int
	c.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	c.AfterFunc(1*time.Second, func() { order = append(order, 10) }) // FIFO tie
	c.Advance(500 * time.Millisecond)
	if len(order) != 0 {
		t.Fatalf("fired early: %v", order)
	}
	c.Advance(2 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Fatalf("fire order %v, want [1 10 2]", order)
	}
}

func TestFakeStop(t *testing.T) {
	c := NewFake()
	fired := false
	tm := c.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer = false")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true")
	}
	c.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d", c.Pending())
	}
}

func TestFakeZeroDelayFiresImmediately(t *testing.T) {
	c := NewFake()
	fired := false
	c.AfterFunc(0, func() { fired = true })
	if !fired {
		t.Fatal("zero-delay timer did not fire on schedule")
	}
}

func TestContextWithTimeoutDeadline(t *testing.T) {
	c := NewFake()
	ctx, cancel := ContextWithTimeout(context.Background(), c, time.Second)
	defer cancel()
	select {
	case <-ctx.Done():
		t.Fatal("done before deadline")
	default:
	}
	c.Advance(time.Second)
	<-ctx.Done()
	if context.Cause(ctx) != context.DeadlineExceeded {
		t.Fatalf("cause = %v, want DeadlineExceeded", context.Cause(ctx))
	}
}

func TestContextWithTimeoutCancelBeforeDeadline(t *testing.T) {
	c := NewFake()
	ctx, cancel := ContextWithTimeout(context.Background(), c, time.Second)
	cancel()
	<-ctx.Done()
	if context.Cause(ctx) != context.Canceled {
		t.Fatalf("cause = %v, want Canceled", context.Cause(ctx))
	}
	if c.Pending() != 0 {
		t.Fatal("cancel left the deadline timer scheduled")
	}
	c.Advance(2 * time.Second) // must not re-cancel with a different cause
	if context.Cause(ctx) != context.Canceled {
		t.Fatalf("cause after advance = %v", context.Cause(ctx))
	}
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	done := make(chan struct{})
	tm := c.AfterFunc(time.Hour, func() { close(done) })
	if !tm.Stop() {
		t.Fatal("Stop on hour timer = false")
	}
	if System(nil) == nil || System(c) != c {
		t.Fatal("System default wiring broken")
	}
}
