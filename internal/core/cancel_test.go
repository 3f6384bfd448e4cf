package core

import (
	"context"
	"sync/atomic"
	"testing"

	"probedis/internal/ctxutil"
)

// pollCtx counts every cancellation poll the pipeline makes (Done is
// fetched once per ctxutil.Cancelled call) without ever cancelling.
type pollCtx struct {
	context.Context
	polls atomic.Int32
}

func (p *pollCtx) Done() <-chan struct{} {
	p.polls.Add(1)
	return nil
}

// TestDisassembleELFContextMatchesNil: a live-but-never-cancelled
// context must not perturb the pipeline — output identical to a
// nil-context run.
func TestDisassembleELFContextMatchesNil(t *testing.T) {
	img := buildMultiSectionELF(t, 2, 6)
	d := New(DefaultModel(), WithWorkers(1))
	want, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DisassembleELFTraceContext(context.Background(), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "nil ctx vs background ctx", want, got)
}

func TestDisassembleELFContextPreCancelled(t *testing.T) {
	img := buildMultiSectionELF(t, 2, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		d := New(nil, WithWorkers(workers))
		out, err := d.DisassembleELFTraceContext(ctx, img, nil)
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Fatalf("workers=%d: partial section list returned", workers)
		}
	}
}

// TestDisassembleELFContextCancelsAtEveryCheckpoint sweeps a
// deterministic countdown context across every cancellation poll of a
// serial whole-image run: cancellation observed at any checkpoint must
// yield (nil, context.Canceled) — never a partial section list.
func TestDisassembleELFContextCancelsAtEveryCheckpoint(t *testing.T) {
	img := buildMultiSectionELF(t, 2, 4)
	d := New(nil, WithWorkers(1))

	probe := &pollCtx{Context: context.Background()}
	if _, err := d.DisassembleELFTraceContext(probe, img, nil); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	polls := int(probe.polls.Load())
	if polls < 4 {
		t.Fatalf("pipeline made only %d cancellation polls", polls)
	}
	// Sweep every checkpoint while the count is small; stride past 128
	// to keep runtime bounded on large poll counts.
	stride := 1
	if polls > 128 {
		stride = polls / 128
	}
	for n := 1; n <= polls; n += stride {
		out, err := d.DisassembleELFTraceContext(ctxutil.CancelAfterChecks(context.Background(), n), img, nil)
		if err != context.Canceled {
			t.Fatalf("checkpoint %d/%d: err = %v, want context.Canceled", n, polls, err)
		}
		if out != nil {
			t.Fatalf("checkpoint %d/%d: partial section list returned", n, polls)
		}
	}
	// Past the final checkpoint the run must complete normally.
	if _, err := d.DisassembleELFTraceContext(ctxutil.CancelAfterChecks(context.Background(), polls+1), img, nil); err != nil {
		t.Fatalf("countdown past final checkpoint: %v", err)
	}
}

// TestDisassembleELFContextParallelCancel drives the worker fan-out path
// under -race: concurrent workers share one countdown context, and the
// run must still abort cleanly wherever the n-th poll happens to land.
func TestDisassembleELFContextParallelCancel(t *testing.T) {
	img := buildMultiSectionELF(t, 4, 6)
	d := New(nil, WithWorkers(4))
	for _, n := range []int{1, 2, 5, 17} {
		out, err := d.DisassembleELFTraceContext(ctxutil.CancelAfterChecks(context.Background(), n), img, nil)
		if err != context.Canceled {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if out != nil {
			t.Fatalf("n=%d: partial section list returned", n)
		}
	}
	// And with a context that never fires, the parallel run still matches
	// the serial one (determinism is unaffected by the polling).
	got, err := d.DisassembleELFTraceContext(context.Background(), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(nil, WithWorkers(1)).DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "parallel ctx vs serial", want, got)
}

// TestDisassembleSectionContextCancels covers the section-level entry
// point used by multi-section callers and the oracle.
func TestDisassembleSectionContextCancels(t *testing.T) {
	img := buildMultiSectionELF(t, 1, 6)
	d := New(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Feed the raw image bytes as a section: content is irrelevant, only
	// the abort path is under test.
	out, err := d.DisassembleSectionTraceContext(ctx, img, 0x1000, -1, nil, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("partial detail returned")
	}
}
