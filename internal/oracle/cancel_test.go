package oracle

import (
	"context"
	"sync/atomic"
	"testing"

	"probedis/internal/core"
	"probedis/internal/ctxutil"
	"probedis/internal/elfx"
	"probedis/internal/synth"
)

// oracleELF builds a two-section image so both the serial and the
// forced-parallel oracle runs cross real section fan-out.
func oracleELF(t *testing.T) []byte {
	t.Helper()
	var bld elfx.Builder
	addr := uint64(0x401000)
	for i := 0; i < 2; i++ {
		bin, err := synth.Generate(synth.Config{
			Seed: int64(40 + i), Profile: synth.ProfileComplex, NumFuncs: 5, Base: addr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			bld.Entry = bin.Entry
		}
		bld.AddSection([]string{".text", ".text.hot"}[i], addr,
			elfx.SHFAlloc|elfx.SHFExecinstr, bin.Code)
		addr = (addr + uint64(len(bin.Code)) + 0xfff) &^ 0xfff
	}
	img, err := bld.Write()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// countingCtx counts cancellation polls without cancelling.
type countingCtx struct {
	context.Context
	polls atomic.Int32
}

func (p *countingCtx) Done() <-chan struct{} {
	p.polls.Add(1)
	return nil
}

// TestCheckELFContextNilMatchesCheckELF: a live-but-never-cancelled
// context reports exactly what a nil-context CheckELF reports.
func TestCheckELFContextNilMatchesCheckELF(t *testing.T) {
	img := oracleELF(t)
	d := core.New(nil)
	want, err := CheckELF(nil, d, img)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CheckELF(context.Background(), d, img)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) != 0 || len(got.Violations) != 0 {
		t.Fatalf("clean image reported violations: nil-ctx=%v ctx=%v",
			want.Violations, got.Violations)
	}
}

func TestCheckELFContextPreCancelled(t *testing.T) {
	img := oracleELF(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := CheckELF(ctx, core.New(nil), img)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled check returned a report")
	}
}

// TestCheckELFContextCancelsAtEveryStage sweeps a deterministic
// countdown over every cancellation poll of the serial leg of a full
// oracle run: at every checkpoint the result must be (nil, ctx.Err())
// and never a report — partial pipeline output must not reach the
// invariant checks, where it would surface as bogus violations.
//
// The countdown only behaves deterministically on the serial leg; once
// the poll budget extends into the forced-parallel leg the trip point
// depends on worker interleaving, but the required outcome (error, no
// report, no violations) does not — which is exactly what the oracle
// must guarantee, so the sweep covers the full poll range anyway.
func TestCheckELFContextCancelsAtEveryStage(t *testing.T) {
	img := oracleELF(t)
	d := core.New(nil)
	probe := &countingCtx{Context: context.Background()}
	if _, err := CheckELF(probe, d, img); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	polls := int(probe.polls.Load())
	if polls < 8 {
		t.Fatalf("oracle run made only %d polls", polls)
	}
	stride := 1
	if polls > 96 {
		stride = polls / 96
	}
	for n := 1; n <= polls; n += stride {
		rep, err := CheckELF(ctxutil.CancelAfterChecks(context.Background(), n), d, img)
		if err == nil {
			// The countdown outlived this run's polls (parallel-leg
			// interleaving can shift the trip point past the end): a run
			// that completed must then be complete and clean.
			if len(rep.Violations) != 0 {
				t.Fatalf("checkpoint %d/%d: completed run has violations: %v",
					n, polls, rep.Violations)
			}
			continue
		}
		if err != context.Canceled {
			t.Fatalf("checkpoint %d/%d: err = %v, want context.Canceled", n, polls, err)
		}
		if rep != nil {
			t.Fatalf("checkpoint %d/%d: cancellation produced a report (%d violations)",
				n, polls, len(rep.Violations))
		}
	}
}

// TestCheckELFContextPastFinalCheckpoint: a countdown that never trips
// during the run completes with a clean report — the sweep's boundary
// condition.
func TestCheckELFContextPastFinalCheckpoint(t *testing.T) {
	img := oracleELF(t)
	d := core.New(nil)
	probe := &countingCtx{Context: context.Background()}
	if _, err := CheckELF(probe, d, img); err != nil {
		t.Fatal(err)
	}
	// Parallel-leg interleaving can add polls run-to-run; leave margin.
	budget := int(probe.polls.Load())*2 + 64
	rep, err := CheckELF(ctxutil.CancelAfterChecks(context.Background(), budget), d, img)
	if err != nil {
		t.Fatalf("uncancelled countdown run failed: %v", err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations from a clean run: %v", rep.Violations)
	}
}
