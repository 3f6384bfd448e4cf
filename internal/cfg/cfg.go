// Package cfg recovers basic blocks and function boundaries from a
// committed instruction classification — the structure downstream binary
// analysis and instrumentation consume.
package cfg

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// Block is a basic block of committed instructions: [Start, End) with at
// most two successor block starts, stored inline.
type Block struct {
	Start, End int
	succ       [2]int
	nsucc      uint8
	// Terminator is the flow kind of the last instruction.
	Terminator x86.Flow
}

// Succs returns the block's successor block starts: the direct-jump
// target, then the fallthrough. The slice aliases the block.
func (b *Block) Succs() []int { return b.succ[:b.nsucc] }

func (b *Block) addSucc(s int) {
	b.succ[b.nsucc] = s
	b.nsucc++
}

// Func is a recovered function: its entry offset and the range
// [First, End) of CFG.Blocks it owns — the blocks whose Start lies
// between its entry and the next function's.
type Func struct {
	Entry      int
	First, End int
}

// CFG is the recovered control-flow structure of one text section.
type CFG struct {
	// Blocks is sorted by Start, strictly ascending; BlockAt searches it.
	Blocks []Block
	// Funcs is sorted by Entry.
	Funcs []Func
}

// Build recovers blocks and functions. instStart marks committed
// instruction starts; seeds are function-entry candidates (program entry,
// call targets, prologue anchors) — they are filtered to committed
// instruction starts.
func Build(g *superset.Graph, instStart []bool, seeds []int) *CFG {
	c, _ := BuildTraceContext(nil, g, instStart, seeds, nil)
	return c
}

// BuildTraceContext is Build with stage tracing and cooperative
// cancellation. Leader discovery, block formation and function-extent
// assignment each get a child span of sp; a nil sp runs the exact
// untraced path. ctx is checked at each stage boundary (leaders ->
// blocks -> funcs): once it is done the build aborts and returns (nil,
// ctx.Err()). Each stage is a single linear scan, so the reaction latency
// is one stage's worth of work. A nil ctx (what Build passes) never polls.
func BuildTraceContext(ctx context.Context, g *superset.Graph, instStart []bool, seeds []int, sp *obs.Span) (*CFG, error) {
	n := g.Len()

	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	lsp := sp.StartChild("leaders")
	// Collect call targets from committed code as additional seeds.
	// leaders and funcSet are dense bitmaps, one bit per offset, rather
	// than maps: every loop below visits offsets in order anyway, the
	// blocks and funcs loops jump between set bits, and bitmaps keep this
	// stage allocation-flat. leaders has n+1 bits because a terminator
	// ending flush with the section marks off+len == n. The two counts
	// size the Blocks and Funcs arrays: every block starts at a leader.
	leaders := make([]uint64, (n+1+63)/64)
	funcSet := make([]uint64, (n+63)/64)
	nleaders, nfuncs := 0, 0
	mark := func(off int) {
		if !hasBit(leaders, off) {
			leaders[off>>6] |= 1 << (off & 63)
			nleaders++
		}
	}
	entry := func(off int) {
		if !hasBit(funcSet, off) {
			funcSet[off>>6] |= 1 << (off & 63)
			nfuncs++
		}
		mark(off)
	}
	for _, s := range seeds {
		if s >= 0 && s < n && instStart[s] {
			entry(s)
		}
	}
	// One ascending walk marks the targets and ends of control transfers
	// and the first instruction of every maximal code run: one that does
	// not start where the previous instruction ended.
	end := -1
	for off := 0; off < n; off++ {
		if !instStart[off] {
			continue
		}
		e := g.At(off)
		if off != end {
			mark(off)
		}
		end = off + e.Len()
		switch e.Flow() {
		case x86.FlowCall:
			if t := g.TargetOff(off); t >= 0 && instStart[t] {
				entry(t)
			}
			mark(end)
		case x86.FlowJump, x86.FlowCondJump:
			if t := g.TargetOff(off); t >= 0 && instStart[t] {
				mark(t)
			}
			mark(end)
		case x86.FlowIndirectJump, x86.FlowIndirectCall, x86.FlowRet, x86.FlowHalt:
			mark(end)
		}
	}
	lsp.Count("leaders", int64(nleaders))
	lsp.End()

	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	bsp := sp.StartChild("blocks")
	// The ascending scan appends blocks already sorted by Start.
	c := &CFG{Blocks: make([]Block, 0, nleaders)}
	for off := nextBit(leaders, 0); off < n; off = nextBit(leaders, off+1) {
		if !instStart[off] {
			continue
		}
		b := Block{Start: off}
		pos := off
		for {
			e := g.At(pos)
			next := pos + e.Len()
			b.End = next
			b.Terminator = e.Flow()
			if t := g.TargetOff(pos); t >= 0 && instStart[t] {
				switch e.Flow() {
				case x86.FlowJump, x86.FlowCondJump:
					b.addSucc(t)
				}
			}
			if e.Flow().HasFallthrough() && next < n && instStart[next] {
				if hasBit(leaders, next) {
					b.addSucc(next)
					break
				}
				pos = next
				continue
			}
			break
		}
		c.Blocks = append(c.Blocks, b)
	}
	bsp.Count("blocks", int64(len(c.Blocks)))
	bsp.End()

	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	fsp := sp.StartChild("funcs")
	// Function extents: each function owns the blocks from its entry up to
	// the next function entry. Entries and block starts both ascend, so
	// one cursor over Blocks closes each function's range as the next
	// entry opens.
	c.Funcs = make([]Func, 0, nfuncs)
	bi := 0
	for f := nextBit(funcSet, 0); f < n; f = nextBit(funcSet, f+1) {
		for bi < len(c.Blocks) && c.Blocks[bi].Start < f {
			bi++
		}
		if k := len(c.Funcs); k > 0 {
			c.Funcs[k-1].End = bi
		}
		c.Funcs = append(c.Funcs, Func{Entry: f, First: bi})
	}
	if k := len(c.Funcs); k > 0 {
		c.Funcs[k-1].End = len(c.Blocks)
	}
	fsp.Count("funcs", int64(len(c.Funcs)))
	fsp.End()
	return c, nil
}

// hasBit reports whether bit i of the bitmap bm is set.
func hasBit(bm []uint64, i int) bool { return bm[i>>6]&(1<<(i&63)) != 0 }

// nextBit returns the first set bit of bm at or after i, or len(bm)*64
// when there is none.
func nextBit(bm []uint64, i int) int {
	w := i >> 6
	if w >= len(bm) {
		return len(bm) << 6
	}
	word := bm[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(bm) {
			return len(bm) << 6
		}
		word = bm[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}

// FuncStarts returns the sorted function entry offsets.
func (c *CFG) FuncStarts() []int {
	out := make([]int, len(c.Funcs))
	for i, f := range c.Funcs {
		out[i] = f.Entry
	}
	return out
}

// NumBlocks returns the number of basic blocks.
func (c *CFG) NumBlocks() int { return len(c.Blocks) }

// BlockAt returns the block starting at off, or nil.
func (c *CFG) BlockAt(off int) *Block {
	i, ok := slices.BinarySearchFunc(c.Blocks, off, func(b Block, off int) int { return cmp.Compare(b.Start, off) })
	if !ok {
		return nil
	}
	return &c.Blocks[i]
}
