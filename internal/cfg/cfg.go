// Package cfg recovers basic blocks and function boundaries from a
// committed instruction classification — the structure downstream binary
// analysis and instrumentation consume.
package cfg

import (
	"context"

	"probedis/internal/ctxutil"
	"probedis/internal/obs"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// Block is a basic block of committed instructions: [Start, End) with
// successor block start offsets.
type Block struct {
	Start, End int
	Succs      []int
	// Terminator is the flow kind of the last instruction.
	Terminator x86.Flow
}

// Func is a recovered function: its entry offset and its blocks (offsets
// into CFG.Blocks order).
type Func struct {
	Entry  int
	Blocks []int // block start offsets belonging to this function
}

// CFG is the recovered control-flow structure of one text section.
type CFG struct {
	Blocks map[int]*Block
	Funcs  []Func
	// starts is the sorted list of block start offsets.
	starts []int
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
	// leaders and funcSet are dense bitmaps rather than maps: every loop
	// below scans offsets in order anyway, and bitmaps keep this stage
	// allocation-flat. leaders has n+1 slots because a terminator ending
	// flush with the section marks off+len == n.
	leaders := make([]bool, n+1)
	funcSet := make([]bool, n)
	nleaders := 0
	mark := func(off int) {
		if !leaders[off] {
			leaders[off] = true
			nleaders++
		}
	}
	for _, s := range seeds {
		if s >= 0 && s < n && instStart[s] {
			funcSet[s] = true
			mark(s)
		}
	}
	for off := 0; off < n; off++ {
		if !instStart[off] {
			continue
		}
		e := g.At(off)
		switch e.Flow {
		case x86.FlowCall:
			if t := g.TargetOff(off); t >= 0 && instStart[t] {
				funcSet[t] = true
				mark(t)
			}
			mark(off + int(e.Len))
		case x86.FlowJump, x86.FlowCondJump:
			if t := g.TargetOff(off); t >= 0 && instStart[t] {
				mark(t)
			}
			mark(off + int(e.Len))
		case x86.FlowIndirectJump, x86.FlowIndirectCall, x86.FlowRet, x86.FlowHalt:
			mark(off + int(e.Len))
		}
	}
	// The first instruction of any maximal code run is a leader.
	prevEnd := -1
	for off := 0; off < n; off++ {
		if !instStart[off] {
			continue
		}
		if off != prevEnd {
			mark(off)
		}
		prevEnd = off + int(g.At(off).Len)
	}
	lsp.Count("leaders", int64(nleaders))
	lsp.End()

	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	bsp := sp.StartChild("blocks")
	// Count blocks first so the arena is exactly sized: pointers into it
	// stay valid because it never reallocates, and the whole CFG costs one
	// backing array instead of one allocation per block.
	nb := 0
	for off := 0; off < n; off++ {
		if instStart[off] && leaders[off] {
			nb++
		}
	}
	arena := make([]Block, 0, nb)
	c := &CFG{Blocks: make(map[int]*Block, nb), starts: make([]int, 0, nb)}
	for off := 0; off < n; off++ {
		if !instStart[off] || !leaders[off] {
			continue
		}
		arena = append(arena, Block{Start: off})
		b := &arena[len(arena)-1]
		pos := off
		for {
			e := g.At(pos)
			next := pos + int(e.Len)
			b.End = next
			b.Terminator = e.Flow
			if t := g.TargetOff(pos); t >= 0 && instStart[t] {
				switch e.Flow {
				case x86.FlowJump, x86.FlowCondJump:
					b.Succs = append(b.Succs, t)
				}
			}
			if e.Flow.HasFallthrough() && next < n && instStart[next] {
				if leaders[next] {
					b.Succs = append(b.Succs, next)
					break
				}
				pos = next
				continue
			}
			break
		}
		c.Blocks[off] = b
		c.starts = append(c.starts, off)
	}
	// starts is built by an ascending scan, so it is already sorted.
	bsp.Count("blocks", int64(len(c.starts)))
	bsp.End()

	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	fsp := sp.StartChild("funcs")
	// Function extents: each function owns the blocks from its entry up to
	// the next function entry. The ascending funcSet scan yields entries
	// pre-sorted, and block starts are consumed with a single cursor since
	// extents are disjoint and ascending.
	var fstarts []int
	for f := 0; f < n; f++ {
		if funcSet[f] {
			fstarts = append(fstarts, f)
		}
	}
	c.Funcs = make([]Func, 0, len(fstarts))
	si := 0
	for i, f := range fstarts {
		end := n
		if i+1 < len(fstarts) {
			end = fstarts[i+1]
		}
		for si < len(c.starts) && c.starts[si] < f {
			si++
		}
		fn := Func{Entry: f}
		for si < len(c.starts) && c.starts[si] < end {
			fn.Blocks = append(fn.Blocks, c.starts[si])
			si++
		}
		c.Funcs = append(c.Funcs, fn)
	}
	fsp.Count("funcs", int64(len(c.Funcs)))
	fsp.End()
	return c, nil
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
func (c *CFG) BlockAt(off int) *Block { return c.Blocks[off] }

// Starts returns all block start offsets in ascending order.
func (c *CFG) Starts() []int { return c.starts }
