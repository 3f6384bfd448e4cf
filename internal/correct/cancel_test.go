package correct

import (
	"bytes"
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/ctxutil"
	"probedis/internal/superset"
)

// cancelFixture builds a small but real correction workload: a code
// chain, a data hint, a retraction (TestRetraction's nop; xor; ret) and a
// gap for the fill phase. The proof hint comes first; runTiered splits
// the stream after it.
func cancelFixture(t *testing.T) (g *superset.Graph, viable []bool, hints []analysis.Hint) {
	t.Helper()
	// nop sled; ret; unclaimed tail (gap fill); data region; nop; xor; ret.
	code := []byte{0x90, 0x90, 0x90, 0xc3, 0x90, 0x90, 0x01, 0x02, 0x03, 0x04, 0x90, 0x31, 0xc0, 0xc3}
	gg, v := buildGraph(code)
	return gg, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof, Src: "entry"},
		{Kind: analysis.HintData, Off: 6, Len: 4, Prio: analysis.PrioStrong, Src: "datapattern"},
		{Kind: analysis.HintData, Off: 12, Len: 1, Prio: analysis.PrioStrong, Src: "datapattern"},
		{Kind: analysis.HintCode, Off: 10, Prio: analysis.PrioMedium, Src: "prologue"},
		{Kind: analysis.HintData, Off: 11, Len: 1, Prio: analysis.PrioWeak, Src: "datapattern"},
	}
}

// recordFixture is a workload whose contested phase merges statistical
// records with hints over more than two commitCheckInterval spans: a nop
// sled ending in a ret, a record at every sled offset with scores that
// fall along it, two weak data hints, and the proof hint at the ret
// first.
func recordFixture() (g *superset.Graph, viable []bool, hints []analysis.Hint, stat []analysis.StatRec) {
	const sled = 2*commitCheckInterval + 100
	code := append(bytes.Repeat([]byte{0x90}, sled), 0xc3, 0x01, 0x02, 0x03)
	g, viable = buildGraph(code)
	hints = []analysis.Hint{
		{Kind: analysis.HintCode, Off: sled, Prio: analysis.PrioProof, Src: "entry"},
		{Kind: analysis.HintData, Off: sled + 1, Len: 2, Prio: analysis.PrioWeak, Src: "offtable"},
		{Kind: analysis.HintData, Off: 7, Len: 1, Prio: analysis.PrioWeak, Src: "offtable"},
	}
	for off := range sled {
		stat = append(stat, analysis.StatRec{Score: float64(sled-off) / 8, Off: off})
	}
	return g, viable, hints, stat
}

// runTiered runs a fixture the way the pipeline splits a hint stream:
// the proof hint in phase A, the records and the rest in phase B. The
// records are copied, since RunTiered reorders them.
func runTiered(ctx context.Context, g *superset.Graph, v []bool, hints []analysis.Hint, stat []analysis.StatRec) (*Outcome, error) {
	return RunTiered(ctx, g, v, hints[:1], func(*Outcome) ([]analysis.StatRec, []analysis.Hint) {
		return slices.Clone(stat), hints[1:]
	}, Options{})
}

// TestRunContextNilMatchesRun: a tiered run under a live-but-never-
// cancelled context matches the single-phase reference Run.
func TestRunContextNilMatchesRun(t *testing.T) {
	g, v, hints := cancelFixture(t)
	want := Run(g, v, hints, Options{})
	got, err := runTiered(context.Background(), g, v, hints, nil)
	if err != nil {
		t.Fatalf("RunTiered: %v", err)
	}
	for i := range want.State {
		if got.State[i] != want.State[i] || got.InstStart[i] != want.InstStart[i] {
			t.Fatalf("outcome differs at %d", i)
		}
	}
	if got.Committed != want.Committed || got.Rejected != want.Rejected || got.Retracted != want.Retracted {
		t.Fatal("outcome counters differ")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	g, v, hints := cancelFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := runTiered(ctx, g, v, hints, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatal("cancelled run returned an outcome")
	}
}

// TestRunContextCancelsAtEveryCheckpoint sweeps a deterministic
// countdown across every cancellation poll of a tiered correction run —
// both commit phases, the check between them, retraction and gap fill:
// each must abort with (nil, context.Canceled), and a fresh uncancelled
// run afterwards still succeeds.
func TestRunContextCancelsAtEveryCheckpoint(t *testing.T) {
	g, v, hints := cancelFixture(t)
	probe := &pollCounter{Context: context.Background()}
	out, err := runTiered(probe, g, v, hints, nil)
	if err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if out.InstStart[10] || out.State[10] != Data {
		t.Fatal("fixture: the nop at 10 was not retracted, so retraction's poll goes unswept")
	}
	sweepCheckpoints(t, int(probe.polls.Load()), g, v, hints, nil)
}

// TestRunContextCancelsInMergedLoop sweeps the countdown across a run
// whose contested loop merges statistical records with hints and polls
// once per commitCheckInterval commits: every poll, in the loop's
// middle too, aborts the run.
func TestRunContextCancelsInMergedLoop(t *testing.T) {
	g, v, hints, stat := recordFixture()
	probe := &pollCounter{Context: context.Background()}
	if _, err := runTiered(probe, g, v, hints, stat); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	bare := &pollCounter{Context: context.Background()}
	if _, err := runTiered(bare, g, v, hints, nil); err != nil {
		t.Fatalf("run without records: %v", err)
	}
	polls := int(probe.polls.Load())
	// The contested loop polls before every commitCheckInterval-th of its
	// len(stat)+2 commits, where the two weak hints alone poll once.
	want := (len(stat) + 1) / commitCheckInterval
	if extra := polls - int(bare.polls.Load()); extra != want {
		t.Fatalf("records added %d polls, want %d", extra, want)
	}
	sweepCheckpoints(t, polls, g, v, hints, stat)
}

// sweepCheckpoints cancels a tiered run of the fixture at each of its
// polls in turn.
func sweepCheckpoints(t *testing.T, polls int, g *superset.Graph, v []bool, hints []analysis.Hint, stat []analysis.StatRec) {
	t.Helper()
	if polls == 0 {
		t.Fatal("correction made no cancellation polls")
	}
	for n := 1; n <= polls; n++ {
		out, err := runTiered(ctxutil.CancelAfterChecks(context.Background(), n), g, v, hints, stat)
		if err != context.Canceled {
			t.Fatalf("checkpoint %d/%d: err = %v, want context.Canceled", n, polls, err)
		}
		if out != nil {
			t.Fatalf("checkpoint %d: outcome returned from cancelled run", n)
		}
	}
	if out, err := runTiered(context.Background(), g, v, hints, stat); err != nil || out.Committed == 0 {
		t.Fatalf("uncancelled run failed after cancelled runs: %v", err)
	}
}

type pollCounter struct {
	context.Context
	polls atomic.Int32
}

func (p *pollCounter) Done() <-chan struct{} {
	p.polls.Add(1)
	return nil
}
