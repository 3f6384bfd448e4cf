package core

import (
	"context"
	"fmt"

	"probedis/internal/ctxutil"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/obs"
	"probedis/internal/superset"
)

// SectionResult pairs one executable section with its classification.
type SectionResult struct {
	Name   string
	Addr   uint64
	Result *dis.Result
}

// SectionDetail pairs one executable section with the full pipeline output.
type SectionDetail struct {
	Name   string
	Addr   uint64
	Data   []byte
	Entry  int // section-relative entry offset, -1 when outside the section
	Detail *Detail
}

// DisassembleSectionTraceContext runs the full pipeline on one text
// section — the section-shaped entry point. extern lists the other
// executable ranges of the same binary (PLT stubs, .init/.fini), which
// are legitimate cross-section branch targets; the verification oracle
// replays sections under deliberately wrong extern sets.
//
// Every pipeline stage (superset build, viability, each hint analysis,
// correction with its sub-phases, CFG recovery) becomes a child span of
// sp; a nil sp traces nothing. Once ctx is done the pipeline aborts
// between stages (and within a few thousand offsets inside the superset
// and correction hot loops) and returns (nil, ctx.Err()). That is the
// only error: with a nil ctx, which never cancels, the call cannot fail.
func (d *Disassembler) DisassembleSectionTraceContext(ctx context.Context, code []byte, base uint64, entry int, extern []superset.Range, sp *obs.Span) (*Detail, error) {
	return d.disassembleSectionPool(ctx, code, base, entry, extern, sp, newWorkPool(d.Workers()))
}

// decodeChunkBytes is the superset decode task size. Chunks this large
// keep the per-task goroutine and closure cost out of the allocation
// profile, while a multi-MiB section still spreads over every worker.
const decodeChunkBytes = 256 << 10

// disassembleSectionPool is DisassembleSectionTraceContext on a work
// pool the caller supplies (one per request, shared across sections; see
// workPool). The superset graph is decoded up front, one task per
// decodeChunkBytes range, and every later stage runs over it.
func (d *Disassembler) disassembleSectionPool(ctx context.Context, code []byte, base uint64, entry int, extern []superset.Range, sp *obs.Span, pool *workPool) (*Detail, error) {
	sp.SetBytes(int64(len(code)))
	bsp := sp.StartChild("superset")
	g := superset.New(code, base)
	pool.run((len(code)+decodeChunkBytes-1)/decodeChunkBytes, func(i int) {
		from := i * decodeChunkBytes
		g.Decode(ctx, from, min(from+decodeChunkBytes, len(code)))
	})
	if ctxutil.Cancelled(ctx) {
		bsp.End()
		return nil, ctxutil.Err(ctx)
	}
	if bsp != nil {
		bsp.SetBytes(int64(len(code)))
		bsp.Count("valid_insts", int64(g.ValidCount()))
		bsp.Count("scan_fallbacks", g.ScanFallbackCount())
		bsp.End()
	}
	g.SetExtern(extern)
	return d.run(ctx, g, entry, sp, pool)
}

// DisassembleELFTraceContext parses a (possibly fully stripped) ELF64
// image and runs the pipeline on every executable section — the
// image-shaped entry point (the disasmd service calls it with the
// per-request context and trace). Other executable sections are
// registered as legitimate cross-section branch targets (PLT stubs,
// .init/.fini), so inter-section tail calls do not poison viability.
//
// Sections are independent pipeline runs, so each is one task on the
// request's work pool (see WithWorkers), whose decode chunks, hint tasks
// and scoring pieces ride the same pool; results land in section order,
// and the output is byte-identical to the serial path.
//
// ELF parsing and every per-section run become child spans of sp (one
// "section" span per executable section, labelled with its name, with
// the stage spans nested under it); a nil sp traces nothing. Under a
// parallel worker pool the section spans overlap in time, so sibling
// durations may sum past the root's wall time; run with WithWorkers(1)
// for an exact serial accounting.
//
// Once ctx is done, queued sections are skipped, running sections abort
// at their next checkpoint and the call returns (nil, ctx.Err()); no
// partial section list is ever returned. A nil ctx never cancels.
func (d *Disassembler) DisassembleELFTraceContext(ctx context.Context, img []byte, sp *obs.Span) ([]SectionDetail, error) {
	psp := sp.StartChild("parse")
	psp.SetBytes(int64(len(img)))
	f, err := elfx.Parse(img)
	psp.End()
	if err != nil {
		return nil, err
	}
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	secs := f.ExecutableSections()
	if len(secs) == 0 {
		return nil, fmt.Errorf("core: no executable sections")
	}

	// Per-section inputs are derived from the bytes actually present
	// (len(Data)), never from the header's Size claim: a truncated or
	// NOBITS executable section would otherwise yield an entry offset
	// beyond the section bytes, and phantom extern ranges that legitimize
	// branches into memory the image does not back.
	entries := make([]int, len(secs))
	externs := make([][]superset.Range, len(secs))
	for i, s := range secs {
		entries[i] = -1
		if f.Entry >= s.Addr && f.Entry-s.Addr < uint64(len(s.Data)) {
			entries[i] = int(f.Entry - s.Addr)
		}
		for j, o := range secs {
			if j != i && len(o.Data) > 0 {
				externs[i] = append(externs[i], superset.Range{
					Start: o.Addr, End: o.Addr + uint64(len(o.Data)),
				})
			}
		}
	}

	// One work-stealing pool per request: sections, and the decode,
	// hint and scoring tasks inside them, all claim its slots, so a giant
	// section's tasks drain onto workers that finished their own sections.
	pool := newWorkPool(d.Workers())
	out := make([]SectionDetail, len(secs))
	pool.run(len(secs), func(i int) {
		// A section's only error is the context's, which the check after
		// the pool reports; a section queued behind a cancellation is
		// skipped here.
		if ctxutil.Cancelled(ctx) {
			return
		}
		s := &secs[i]
		ssp := sp.StartChild("section")
		ssp.SetLabel(s.Name)
		det, err := d.disassembleSectionPool(ctx, s.Data, s.Addr, entries[i], externs[i], ssp, pool)
		ssp.End()
		if err != nil {
			return
		}
		out[i] = SectionDetail{
			Name:   s.Name,
			Addr:   s.Addr,
			Data:   s.Data,
			Entry:  entries[i],
			Detail: det,
		}
	})
	if ctxutil.Cancelled(ctx) {
		return nil, ctxutil.Err(ctx)
	}
	return out, nil
}

// DisassembleELF is DisassembleELFTraceContext without cancellation or
// tracing, reduced to the per-section classifications.
func (d *Disassembler) DisassembleELF(img []byte) ([]SectionResult, error) {
	details, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		return nil, err
	}
	out := make([]SectionResult, len(details))
	for i, s := range details {
		out[i] = SectionResult{Name: s.Name, Addr: s.Addr, Result: s.Detail.Result}
	}
	return out, nil
}
