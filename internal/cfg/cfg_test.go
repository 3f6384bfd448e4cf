package cfg

import (
	"testing"

	"probedis/internal/superset"
	"probedis/internal/x86"
)

// mark builds an instStart mask by linear decoding (the snippets contain
// no data).
func mark(g *superset.Graph) []bool {
	starts := make([]bool, g.Len())
	pos := 0
	for pos < g.Len() && g.Valid(pos) {
		starts[pos] = true
		pos += g.Info[pos].Len()
	}
	return starts
}

func TestLinearBlock(t *testing.T) {
	// One straight-line function: push rbp; mov rbp,rsp; ret.
	g := superset.Build([]byte{0x55, 0x48, 0x89, 0xe5, 0xc3}, 0)
	c := Build(g, mark(g), []int{0})
	if c.NumBlocks() != 1 {
		t.Fatalf("blocks = %d, want 1", c.NumBlocks())
	}
	b := c.BlockAt(0)
	if b == nil || b.Start != 0 || b.End != 5 {
		t.Fatalf("block = %+v", b)
	}
	if b.Terminator != x86.FlowRet || len(b.Succs()) != 0 {
		t.Errorf("terminator %v succs %v", b.Terminator, b.Succs())
	}
	if len(c.Funcs) != 1 || c.Funcs[0].Entry != 0 {
		t.Errorf("funcs = %+v", c.Funcs)
	}
}

func TestDiamond(t *testing.T) {
	// 0: je +1 -> 3 ; 2: ret ; 3: ret
	g := superset.Build([]byte{0x74, 0x01, 0xc3, 0xc3}, 0)
	starts := []bool{true, false, true, true}
	c := Build(g, starts, []int{0})
	if c.NumBlocks() != 3 {
		t.Fatalf("blocks = %d, want 3 (%v)", c.NumBlocks(), c.Blocks)
	}
	b0 := c.BlockAt(0)
	if len(b0.Succs()) != 2 {
		t.Fatalf("entry succs = %v", b0.Succs())
	}
	want := map[int]bool{2: true, 3: true}
	for _, s := range b0.Succs() {
		if !want[s] {
			t.Errorf("unexpected succ %d", s)
		}
	}
}

func TestCallSplitsBlocksAndSeedsFunctions(t *testing.T) {
	// 0: call +3 (-> 8); 5: nop; 6: nop; 7: ret; 8: ret
	code := []byte{0xe8, 0x03, 0x00, 0x00, 0x00, 0x90, 0x90, 0xc3, 0xc3}
	g := superset.Build(code, 0)
	starts := []bool{true, false, false, false, false, true, true, true, true}
	c := Build(g, starts, []int{0})
	// Call target 8 becomes a function.
	if len(c.Funcs) != 2 {
		t.Fatalf("funcs = %+v", c.Funcs)
	}
	if c.Funcs[0].Entry != 0 || c.Funcs[1].Entry != 8 {
		t.Errorf("entries = %d, %d", c.Funcs[0].Entry, c.Funcs[1].Entry)
	}
	// The call ends its block with a fallthrough successor at 5.
	b0 := c.BlockAt(0)
	if b0 == nil || b0.End != 5 || len(b0.Succs()) != 1 || b0.Succs()[0] != 5 {
		t.Errorf("call block = %+v", b0)
	}
	// Function 0 owns blocks at 0 and 5; function 1 owns block 8.
	if f := c.Funcs[0]; f.First != 0 || f.End != 2 {
		t.Errorf("func0 blocks = %+v", f)
	}
	if f := c.Funcs[1]; f.First != 2 || f.End != 3 {
		t.Errorf("func1 blocks = %+v", f)
	}
}

func TestLoopBlock(t *testing.T) {
	// 0: nop; 1: jmp -3 (back to 0) => single block looping to itself?
	// jmp target 0 is a leader, so block [0,3) with succ 0.
	g := superset.Build([]byte{0x90, 0xeb, 0xfd}, 0)
	starts := []bool{true, true, false}
	c := Build(g, starts, []int{0})
	b := c.BlockAt(0)
	if b == nil || b.End != 3 {
		t.Fatalf("block = %+v (starts %v)", b, c.Blocks)
	}
	if len(b.Succs()) != 1 || b.Succs()[0] != 0 {
		t.Errorf("loop succs = %v", b.Succs())
	}
}

func TestEmpty(t *testing.T) {
	g := superset.Build(nil, 0)
	c := Build(g, nil, nil)
	if c.NumBlocks() != 0 || len(c.Funcs) != 0 {
		t.Errorf("empty CFG: %d blocks, %d funcs", c.NumBlocks(), len(c.Funcs))
	}
}
