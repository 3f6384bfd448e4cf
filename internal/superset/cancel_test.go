package superset

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"probedis/internal/ctxutil"
)

// buf returns len bytes of decodable machine code (NOP sled with some
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

func TestBuildContextNilMatchesBuild(t *testing.T) {
	code := cancelBuf(3 * ctxutil.CheckInterval)
	want := Build(code, 0x1000)
	got, err := BuildContext(context.Background(), code, 0x1000)
	if err != nil {
		t.Fatalf("BuildContext: %v", err)
	}
	if len(got.Info) != len(want.Info) {
		t.Fatalf("info sizes differ: %d vs %d", len(got.Info), len(want.Info))
	}
	for i := range want.Info {
		if got.Info[i] != want.Info[i] {
			t.Fatalf("Info[%d] differs: %+v vs %+v", i, got.Info[i], want.Info[i])
		}
	}
	if !bytes.Equal(got.Code, want.Code) {
		t.Fatal("code slices differ")
	}
}

func TestBuildContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := BuildContext(ctx, cancelBuf(2*ctxutil.CheckInterval), 0)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g != nil {
		t.Fatal("cancelled build returned a graph")
	}
}

// TestBuildContextCancelsAtEveryCheckpoint sweeps the deterministic
// countdown context across the serial build's checkpoints: every
// cancellation point must abort with ctx.Err() and no graph.
func TestBuildContextCancelsAtEveryCheckpoint(t *testing.T) {
	code := cancelBuf(4*ctxutil.CheckInterval + 17)
	// Count the polls a full run makes.
	probe := &pollCounter{Context: context.Background()}
	if _, err := BuildContext(probe, code, 0); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	polls := int(probe.polls.Load())
	if polls == 0 {
		t.Fatal("build made no cancellation polls on a multi-chunk section")
	}
	for n := 1; n <= polls; n++ {
		g, err := BuildContext(ctxutil.CancelAfterChecks(context.Background(), n), code, 0)
		if err != context.Canceled {
			t.Fatalf("checkpoint %d: err = %v, want context.Canceled", n, err)
		}
		if g != nil {
			t.Fatalf("checkpoint %d: got a graph from a cancelled build", n)
		}
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
