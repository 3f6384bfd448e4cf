package superset

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"probedis/internal/ctxutil"
)

// cancelBuf returns n bytes of decodable machine code (NOP sled with some
// structure so the graph is non-trivial).
func cancelBuf(n int) []byte {
	code := make([]byte, n)
	for i := range code {
		switch i % 7 {
		case 0:
			code[i] = 0x90 // nop
		case 3:
			code[i] = 0xc3 // ret
		default:
			code[i] = 0x48 // rex prefix runs
		}
	}
	return code
}

// checkDecodeStopsAt asserts that a Decode of g cancelled through ctx
// stopped at the poll after offset stop: ctx reports context.Canceled,
// every offset below stop holds the record a full Build gives, and every
// offset from stop on still holds the zero record New allocated.
func checkDecodeStopsAt(t *testing.T, what string, ctx context.Context, g, want *Graph, stop int) {
	t.Helper()
	if err := ctx.Err(); err != context.Canceled {
		t.Fatalf("%s: ctx.Err() = %v, want context.Canceled", what, err)
	}
	for off := range g.Info {
		if off < stop && g.Info[off] != want.Info[off] {
			t.Fatalf("%s: Info[%d] = %+v before the cancelling poll, want %+v", what, off, g.Info[off], want.Info[off])
		}
		if off >= stop && g.Info[off] != (Info{}) {
			t.Fatalf("%s: Info[%d] = %+v decoded after the cancelling poll at %d", what, off, g.Info[off], stop)
		}
	}
}

// TestDecodePreCancelled: a context cancelled before Decode starts stops
// it at its first poll, after the first chunk.
func TestDecodePreCancelled(t *testing.T) {
	code := cancelBuf(2 * ctxutil.CheckInterval)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := New(code, 0)
	g.Decode(ctx, 0, len(code))
	checkDecodeStopsAt(t, "pre-cancelled", ctx, g, Build(code, 0), ctxutil.CheckInterval)
}

// TestDecodeCancelsAtEveryCheckpoint sweeps the deterministic countdown
// context across a whole-section Decode's polls, one every
// ctxutil.CheckInterval offsets: cancelling at the n-th poll must stop
// Decode there, with offsets [0, n*CheckInterval) decoded and the rest
// untouched.
func TestDecodeCancelsAtEveryCheckpoint(t *testing.T) {
	code := cancelBuf(4*ctxutil.CheckInterval + 17)
	want := Build(code, 0)
	// Count the polls a full run makes.
	probe := &pollCounter{Context: context.Background()}
	New(code, 0).Decode(probe, 0, len(code))
	polls := int(probe.polls.Load())
	if wantPolls := len(code) / ctxutil.CheckInterval; polls != wantPolls {
		t.Fatalf("decode made %d cancellation polls, want one after each chunk but the last (%d)", polls, wantPolls)
	}
	for n := 1; n <= polls; n++ {
		ctx := ctxutil.CancelAfterChecks(context.Background(), n)
		g := New(code, 0)
		g.Decode(ctx, 0, len(code))
		checkDecodeStopsAt(t, fmt.Sprintf("checkpoint %d", n), ctx, g, want, n*ctxutil.CheckInterval)
	}
}

// pollCounter counts Done() fetches (i.e. cancellation polls) without
// ever cancelling.
type pollCounter struct {
	context.Context
	polls atomic.Int32
}

func (p *pollCounter) Done() <-chan struct{} {
	p.polls.Add(1)
	return nil
}
