package cfg_test

import (
	"testing"

	"probedis/internal/cfg"
	"probedis/internal/core"
	"probedis/internal/synth"
)

// TestFunctionRecoveryOnCorpus compares recovered function starts against
// ground truth on a generated binary through the full pipeline.
func TestFunctionRecoveryOnCorpus(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 61, Profile: synth.ProfileO2, NumFuncs: 50})
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(core.DefaultModel())
	res := d.Disassemble(b.Code, b.Base, int(b.Entry-b.Base))

	truth := map[int]bool{}
	for _, f := range b.Truth.FuncStarts {
		truth[f] = true
	}
	tp, fp := 0, 0
	for _, f := range res.FuncStarts {
		if truth[f] {
			tp++
		} else {
			fp++
		}
	}
	recall := float64(tp) / float64(len(truth))
	t.Logf("func starts: tp=%d fp=%d truth=%d recall=%.3f", tp, fp, len(truth), recall)
	if recall < 0.9 {
		t.Errorf("function recall %.3f < 0.9", recall)
	}
	if fp > len(truth)/10 {
		t.Errorf("function FPs %d too high", fp)
	}
}

// largeDetail runs the pipeline over a generated section with well over
// 1,000 blocks.
func largeDetail(t *testing.T) *core.Detail {
	t.Helper()
	b, err := synth.Generate(synth.Config{Seed: 62, Profile: synth.ProfileComplex, NumFuncs: 80})
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.New(core.DefaultModel()).DisassembleSectionTraceContext(nil, b.Code, b.Base, int(b.Entry-b.Base), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := det.CFG.NumBlocks(); n < 1000 {
		t.Fatalf("section has %d blocks, want at least 1000", n)
	}
	return det
}

// TestFlatRecords pins the CFG's layout: one block array strictly
// ascending by start, BlockAt finding exactly the array's elements, and
// each function's [First, End) range holding exactly the blocks that
// start between its entry and the next one.
func TestFlatRecords(t *testing.T) {
	det := largeDetail(t)
	c := det.CFG
	isStart := make([]bool, det.Graph.Len())
	for i := range c.Blocks {
		b := &c.Blocks[i]
		if i > 0 && b.Start <= c.Blocks[i-1].Start {
			t.Fatalf("block %d starts at %#x, after %#x", i, b.Start, c.Blocks[i-1].Start)
		}
		if got := c.BlockAt(b.Start); got != b {
			t.Fatalf("BlockAt(%#x) = %p, want &Blocks[%d] = %p", b.Start, got, i, b)
		}
		isStart[b.Start] = true
	}
	for off, s := range isStart {
		if !s && c.BlockAt(off) != nil {
			t.Fatalf("BlockAt(%#x) found a block at a non-start offset", off)
		}
	}
	for k, f := range c.Funcs {
		next := det.Graph.Len()
		if k+1 < len(c.Funcs) {
			next = c.Funcs[k+1].Entry
			if next <= f.Entry {
				t.Fatalf("func %d entry %#x not after %#x", k+1, next, f.Entry)
			}
		}
		var want []int
		for i, b := range c.Blocks {
			if b.Start >= f.Entry && b.Start < next {
				want = append(want, i)
			}
		}
		if len(want) != f.End-f.First || (len(want) > 0 && want[0] != f.First) {
			t.Fatalf("func %d at %#x owns blocks [%d,%d), want %v", k, f.Entry, f.First, f.End, want)
		}
	}
}

// TestBuildAllocsFlat: Build allocates a fixed handful of arrays however
// many blocks and functions the section has — no per-block or
// per-function allocation.
func TestBuildAllocsFlat(t *testing.T) {
	det := largeDetail(t)
	seeds := det.Result.FuncStarts
	var c *cfg.CFG
	allocs := testing.AllocsPerRun(5, func() { c = cfg.Build(det.Graph, det.Result.InstStart, seeds) })
	if c.NumBlocks() != det.CFG.NumBlocks() || len(c.Funcs) != len(det.CFG.Funcs) {
		t.Fatalf("rebuilt CFG has %d blocks and %d funcs, pipeline %d and %d",
			c.NumBlocks(), len(c.Funcs), det.CFG.NumBlocks(), len(det.CFG.Funcs))
	}
	t.Logf("%d blocks, %d funcs: %.0f allocations", c.NumBlocks(), len(c.Funcs), allocs)
	if allocs > 8 {
		t.Errorf("cfg.Build over %d blocks and %d funcs made %.0f allocations, want at most 8",
			c.NumBlocks(), len(c.Funcs), allocs)
	}
}
