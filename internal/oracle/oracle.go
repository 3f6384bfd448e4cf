// Package oracle is the verification engine for the disassembly pipeline:
// it checks structural invariants that must hold after any pipeline run,
// verifies that the concurrent pipeline agrees with the serial one, and
// runs metamorphic tests — truth-preserving transforms of synthetic
// binaries whose truth-relative metrics must not change (see
// metamorphic.go).
//
// The oracle never trusts the pipeline's own bookkeeping: invariants are
// re-derived from the superset graph and the raw bytes, so a bug that
// corrupts both the result and the derived statistics consistently is
// still caught.
//
// Invariants enforced by CheckDetail / CheckSection / CheckELF:
//
//	partition       every byte is classified, exactly one of code/data;
//	                no byte is left in the corrector's Unknown state
//	inst-integrity  every emitted instruction start decodes, fits the
//	                section, and owns its bytes exclusively: committed
//	                instructions never overlap and never span into data
//	code-owned      every code byte is covered by exactly one committed
//	                instruction (no orphan code bytes)
//	viability       every committed instruction is viable and none of its
//	                forced successors (fallthrough, direct branch target)
//	                leaves the section except into a registered extern
//	                range
//	func-starts     recovered function entries are strictly ascending and
//	                land on committed instruction starts
//	cfg-domain      CFG blocks are strictly ascending by start and cover
//	                committed instructions only; every successor edge
//	                lands on a block start inside the section
//	hint-order      the hint stream is deterministic across collections
//	                and its commit order is a total order
//	determinism     serial (workers=1) and parallel pipeline runs produce
//	                byte-identical classifications
//	tier            the tiered pre-pass partition is exact: re-committing
//	                the structural hints alone reproduces the recorded
//	                settled/contested windows byte for byte
package oracle

import (
	"context"
	"fmt"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/core"
	"probedis/internal/correct"
	"probedis/internal/ctxutil"
	"probedis/internal/dis"
	"probedis/internal/superset"
	"probedis/internal/tier"
	"probedis/internal/x86"
)

// Invariant names, used as Violation.Invariant values.
const (
	InvPartition     = "partition"
	InvInstIntegrity = "inst-integrity"
	InvCodeOwned     = "code-owned"
	InvViability     = "viability"
	InvFuncStarts    = "func-starts"
	InvCFGDomain     = "cfg-domain"
	InvHintOrder     = "hint-order"
	InvDeterminism   = "determinism"
	InvMetamorphic   = "metamorphic"
	InvTier          = "tier"
)

// Violation is one broken invariant.
type Violation struct {
	Invariant string // which invariant (Inv* constants)
	Section   string // section or context name
	Off       int    // section offset, -1 when not byte-anchored
	Msg       string
}

func (v Violation) String() string {
	if v.Off >= 0 {
		return fmt.Sprintf("%s[%s] @%#x: %s", v.Invariant, v.Section, v.Off, v.Msg)
	}
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Section, v.Msg)
}

// Report collects violations from one or more checks.
type Report struct {
	Violations []Violation
}

// OK reports whether no invariant was violated.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) addf(inv, sec string, off int, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: inv, Section: sec, Off: off, Msg: fmt.Sprintf(format, args...),
	})
}

// violationCap bounds per-check reporting so a badly broken run doesn't
// produce megabytes of diagnostics; the first violations carry the signal.
const violationCap = 32

func (r *Report) full() bool { return len(r.Violations) >= violationCap }

// CheckDetail checks every structural invariant on one section's full
// pipeline output.
func CheckDetail(rep *Report, sec string, code []byte, det *core.Detail) {
	res := det.Result
	if res.Len() != len(code) || det.Graph.Len() != len(code) {
		rep.addf(InvPartition, sec, -1, "result covers %d bytes, graph %d, section %d",
			res.Len(), det.Graph.Len(), len(code))
		return
	}
	out := det.Outcome
	for i := range out.State {
		if rep.full() {
			return
		}
		st := out.State[i]
		if st == correct.Unknown {
			rep.addf(InvPartition, sec, i, "byte left unclassified (Unknown) after gap fill")
		}
		if (st == correct.Code) != res.IsCode[i] {
			rep.addf(InvPartition, sec, i, "Outcome.State=%d disagrees with Result.IsCode=%v", st, res.IsCode[i])
		}
	}
	checkInstWalk(rep, sec, code, res, det)
	checkFuncStarts(rep, sec, res)
	checkCFG(rep, sec, code, det)
}

// checkInstWalk verifies instruction integrity and code ownership by
// walking the section once: every code byte lies in exactly one committed
// instruction, and every instruction byte is code. It also checks each
// committed instruction's viability and forced successors.
func checkInstWalk(rep *Report, sec string, code []byte, res *dis.Result, det *core.Detail) {
	n := len(code)
	for off := 0; off < n; {
		if rep.full() {
			return
		}
		if !res.InstStart[off] {
			if res.IsCode[off] {
				rep.addf(InvCodeOwned, sec, off, "code byte not covered by any committed instruction")
			}
			off++
			continue
		}
		// Committed instruction start: re-decode independently.
		inst, err := decodeAt(code, res.Base, off, det)
		if err != nil {
			rep.addf(InvInstIntegrity, sec, off, "committed instruction start does not decode: %v", err)
			off++
			continue
		}
		end := off + inst.len
		if end > n {
			rep.addf(InvInstIntegrity, sec, off, "instruction (%d bytes) spans past section end %#x", inst.len, n)
			off++
			continue
		}
		for j := off; j < end; j++ {
			if !res.IsCode[j] {
				rep.addf(InvInstIntegrity, sec, off, "instruction byte %#x classified data (spans into data)", j)
			}
			if j > off && res.InstStart[j] {
				rep.addf(InvInstIntegrity, sec, off, "overlapping instruction start inside [%#x,%#x)", off, end)
			}
		}
		if !det.Viable[off] {
			rep.addf(InvViability, sec, off, "committed instruction start is non-viable")
		}
		ft, tgt := det.Graph.ForcedSuccs(off)
		for _, s := range [2]int{ft, tgt} {
			if s == superset.Escape {
				rep.addf(InvViability, sec, off,
					"forced successor escapes the section outside any registered extern range")
			}
		}
		off = end
	}
}

// decoded is the minimal decode fact the walk needs.
type decoded struct{ len int }

// decodeAt re-derives the instruction at off. The superset decode is
// authoritative (it is what the pipeline committed) but must agree with
// a fresh decode.
func decodeAt(code []byte, base uint64, off int, det *core.Detail) (decoded, error) {
	inst, err := x86.Decode(code[off:], base+uint64(off))
	if !det.Graph.Valid(off) {
		return decoded{}, fmt.Errorf("superset graph has no valid decode")
	}
	if glen := det.Graph.At(off).Len(); err != nil || inst.Len != glen {
		return decoded{}, fmt.Errorf("graph decode (%d bytes) disagrees with fresh decode (err=%v)",
			glen, err)
	}
	return decoded{len: inst.Len}, nil
}

func checkFuncStarts(rep *Report, sec string, res *dis.Result) {
	prev := -1
	for _, f := range res.FuncStarts {
		if rep.full() {
			return
		}
		if f <= prev {
			rep.addf(InvFuncStarts, sec, f, "function starts not strictly ascending (prev %#x)", prev)
		}
		prev = f
		if f < 0 || f >= res.Len() {
			rep.addf(InvFuncStarts, sec, f, "function start outside section")
			continue
		}
		if !res.InstStart[f] {
			rep.addf(InvFuncStarts, sec, f, "function start is not a committed instruction start")
		}
	}
}

func checkCFG(rep *Report, sec string, code []byte, det *core.Detail) {
	c := det.CFG
	if c == nil {
		rep.addf(InvCFGDomain, sec, -1, "pipeline produced no CFG")
		return
	}
	res := det.Result
	for i := range c.Blocks {
		if rep.full() {
			return
		}
		b := &c.Blocks[i]
		// BlockAt binary-searches the array, so it must stay sorted.
		if i > 0 && b.Start <= c.Blocks[i-1].Start {
			rep.addf(InvCFGDomain, sec, b.Start, "block starts at %#x, not after the previous block's %#x", b.Start, c.Blocks[i-1].Start)
		}
		if b.Start < 0 || b.End > len(code) || b.Start >= b.End {
			rep.addf(InvCFGDomain, sec, b.Start, "block extent [%#x,%#x) outside section", b.Start, b.End)
			continue
		}
		if !res.InstStart[b.Start] {
			rep.addf(InvCFGDomain, sec, b.Start, "block start is not a committed instruction start")
		}
		for _, s := range b.Succs() {
			if s < 0 || s >= len(code) || !res.InstStart[s] {
				rep.addf(InvCFGDomain, sec, b.Start, "successor %#x is not a committed instruction start", s)
				continue
			}
			if c.BlockAt(s) == nil {
				rep.addf(InvCFGDomain, sec, b.Start, "successor %#x has no block", s)
			}
		}
	}
	for _, f := range c.Funcs {
		if rep.full() {
			return
		}
		if c.BlockAt(f.Entry) == nil {
			rep.addf(InvCFGDomain, sec, f.Entry, "function entry has no block")
		}
	}
}

// CheckHintOrder verifies that an already-sorted hint stream is a total
// order: strictly ordered under the canonical key, with ties only between
// byte-identical hints.
func CheckHintOrder(rep *Report, sec string, hints []analysis.Hint) {
	for i := 1; i < len(hints); i++ {
		if rep.full() {
			return
		}
		a, b := hints[i-1], hints[i]
		if b.Less(a) {
			rep.addf(InvHintOrder, sec, b.Off, "hint %d sorts before its predecessor (%+v < %+v)", i, b, a)
		}
		if !a.Less(b) && !b.Less(a) && a != b {
			rep.addf(InvHintOrder, sec, b.Off,
				"distinct hints tie under the commit order: %+v vs %+v", a, b)
		}
	}
}

// CheckHintDeterminism collects the hint stream twice and requires the
// sorted sequences to be identical, then checks total ordering. collect
// must be side-effect free. It returns the first collection, sorted.
func CheckHintDeterminism(rep *Report, sec string, collect func() []analysis.Hint) []analysis.Hint {
	h1, h2 := collect(), collect()
	analysis.SortHints(h1)
	analysis.SortHints(h2)
	if len(h1) != len(h2) {
		rep.addf(InvHintOrder, sec, -1, "hint collection not deterministic: %d vs %d hints", len(h1), len(h2))
		return h1
	}
	for i := range h1 {
		if h1[i] != h2[i] {
			rep.addf(InvHintOrder, sec, h1[i].Off,
				"hint collection not deterministic at rank %d: %+v vs %+v", i, h1[i], h2[i])
			return h1
		}
	}
	CheckHintOrder(rep, sec, h1)
	return h1
}

// CheckTier re-derives the tiered pre-pass partition from first
// principles and requires it to match the one the pipeline recorded.
// hints is the section's structural and weak stream, re-collected (see
// checkRuns); its structural hints (everything outranking statistical
// priority) are committed alone — no retraction, no gap fill — and the
// maximal Unknown runs of the resulting state must be exactly the
// recorded contested windows. A settled region containing a contested
// offset (or the reverse) is a violation: statistical evidence would have
// been skipped (or recomputed) where the single-phase run consults it.
// Every pipeline run records a partition; a Detail without one is
// vacuously fine.
func CheckTier(rep *Report, sec string, hints []analysis.Hint, det *core.Detail) {
	p := det.Tier
	if p == nil {
		return
	}
	n := det.Result.Len()
	if p.Total != n {
		rep.addf(InvTier, sec, -1, "partition covers %d bytes, section has %d", p.Total, n)
		return
	}
	if p.SettledBytes+p.ContestedBytes != p.Total || p.SettledBytes < 0 || p.ContestedBytes < 0 {
		rep.addf(InvTier, sec, -1, "settled %d + contested %d != total %d",
			p.SettledBytes, p.ContestedBytes, p.Total)
	}
	sum, prevEnd := 0, -1
	for _, w := range p.Windows {
		if w[0] < 0 || w[1] > n || w[0] >= w[1] {
			rep.addf(InvTier, sec, w[0], "malformed contested window [%#x,%#x)", w[0], w[1])
			return
		}
		if w[0] <= prevEnd {
			rep.addf(InvTier, sec, w[0], "contested windows not ascending/disjoint (prev end %#x)", prevEnd)
			return
		}
		sum += w[1] - w[0]
		prevEnd = w[1]
	}
	if sum != p.ContestedBytes {
		rep.addf(InvTier, sec, -1, "windows cover %d bytes, partition claims %d contested", sum, p.ContestedBytes)
	}

	// Independent recomputation. The stream is flattened under
	// WithoutPrioritization exactly as the pipeline flattens it, so the
	// structural split matches the one the tiered pipeline made before
	// any statistics existed.
	structural, _ := tier.SplitHints(hints)
	phaseA := correct.Run(det.Graph, det.Viable, structural,
		correct.Options{NoRetract: true, NoGapFill: true})
	want := tier.FromStates(phaseA.State)
	if want.SettledBytes != p.SettledBytes || want.ContestedBytes != p.ContestedBytes ||
		len(want.Windows) != len(p.Windows) {
		rep.addf(InvTier, sec, -1,
			"recomputed partition differs: settled %d/contested %d/%d windows, recorded %d/%d/%d",
			want.SettledBytes, want.ContestedBytes, len(want.Windows),
			p.SettledBytes, p.ContestedBytes, len(p.Windows))
		return
	}
	for i := range want.Windows {
		if want.Windows[i] != p.Windows[i] {
			rep.addf(InvTier, sec, p.Windows[i][0],
				"contested window %d is [%#x,%#x), recomputation says [%#x,%#x)",
				i, p.Windows[i][0], p.Windows[i][1], want.Windows[i][0], want.Windows[i][1])
			return
		}
	}
}

// CheckAgreement compares two full pipeline runs (e.g. serial vs parallel)
// section by section and reports any divergence.
func CheckAgreement(rep *Report, ctx string, a, b []core.SectionDetail) {
	if len(a) != len(b) {
		rep.addf(InvDeterminism, ctx, -1, "section counts differ: %d vs %d", len(a), len(b))
		return
	}
	for i := range a {
		sa, sb := &a[i], &b[i]
		sec := ctx + "/" + sa.Name
		if sa.Name != sb.Name || sa.Addr != sb.Addr || sa.Entry != sb.Entry {
			rep.addf(InvDeterminism, sec, -1, "section identity differs: %s@%#x vs %s@%#x",
				sa.Name, sa.Addr, sb.Name, sb.Addr)
			continue
		}
		ra, rb := sa.Detail.Result, sb.Detail.Result
		if ra.Len() != rb.Len() {
			rep.addf(InvDeterminism, sec, -1, "result sizes differ: %d vs %d", ra.Len(), rb.Len())
			continue
		}
		for j := range ra.IsCode {
			if ra.IsCode[j] != rb.IsCode[j] || ra.InstStart[j] != rb.InstStart[j] {
				rep.addf(InvDeterminism, sec, j, "classification differs (code %v/%v, inst %v/%v)",
					ra.IsCode[j], rb.IsCode[j], ra.InstStart[j], rb.InstStart[j])
				break
			}
		}
		if fmt.Sprint(ra.FuncStarts) != fmt.Sprint(rb.FuncStarts) {
			rep.addf(InvDeterminism, sec, -1, "function starts differ: %v vs %v", ra.FuncStarts, rb.FuncStarts)
		}
		oa, ob := sa.Detail.Outcome, sb.Detail.Outcome
		if oa.Committed != ob.Committed || oa.Rejected != ob.Rejected || oa.Retracted != ob.Retracted {
			rep.addf(InvDeterminism, sec, -1, "outcome counters differ: %d/%d/%d vs %d/%d/%d",
				oa.Committed, oa.Rejected, oa.Retracted, ob.Committed, ob.Rejected, ob.Retracted)
		}
		ta, tb := sa.Detail.Tier, sb.Detail.Tier
		switch {
		case (ta == nil) != (tb == nil):
			rep.addf(InvDeterminism, sec, -1, "tier partition present in only one run")
		case ta != nil:
			same := ta.SettledBytes == tb.SettledBytes && ta.ContestedBytes == tb.ContestedBytes &&
				len(ta.Windows) == len(tb.Windows)
			for j := 0; same && j < len(ta.Windows); j++ {
				same = ta.Windows[j] == tb.Windows[j]
			}
			if !same {
				rep.addf(InvDeterminism, sec, -1,
					"tier partitions differ: settled %d/%d, contested %d/%d, windows %d/%d",
					ta.SettledBytes, tb.SettledBytes, ta.ContestedBytes, tb.ContestedBytes,
					len(ta.Windows), len(tb.Windows))
			}
		}
	}
}

// parallelWorkers forces the concurrent code paths even on one CPU.
const parallelWorkers = 4

// CheckELF runs the whole battery on one ELF image: a serial and a
// parallel pipeline run must agree, and every section must satisfy the
// structural and hint-stream invariants. The error return is a parse or
// pipeline failure, not a violation.
//
// Once ctx is done, whichever pipeline run is active aborts at its next
// checkpoint and the call returns ctx.Err() with a nil report — a
// truncated run never reaches the invariant checks, so cancellation can
// never manufacture partial-result violations. A nil ctx never cancels.
func CheckELF(ctx context.Context, d *core.Disassembler, img []byte) (*Report, error) {
	serial, err := d.Clone(core.WithWorkers(1)).DisassembleELFTraceContext(ctx, img, nil)
	if err != nil {
		return nil, err
	}
	par, err := d.Clone(core.WithWorkers(parallelWorkers)).DisassembleELFTraceContext(ctx, img, nil)
	if err != nil {
		if cerr := ctxutil.Err(ctx); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("oracle: parallel run failed where serial succeeded: %w", err)
	}
	return checkRuns(d, "elf", serial, par), nil
}

// CheckSection is CheckELF for one bare text section (no ELF container).
func CheckSection(d *core.Disassembler, code []byte, base uint64, entry int) *Report {
	run := func(workers int) []core.SectionDetail {
		det, _ := d.Clone(core.WithWorkers(workers)).DisassembleSectionTraceContext(nil, code, base, entry, nil, nil)
		return []core.SectionDetail{{Name: ".text", Addr: base, Data: code, Entry: entry, Detail: det}}
	}
	return checkRuns(d, "section", run(1), run(parallelWorkers))
}

// checkRuns is the battery over a serial and a parallel run of d. The
// hint checks collect the stream the pipeline splits between its two
// correction phases, d's structural and weak hints (HintsFor under
// WithoutStats): the whole-section statistical hints HintsFor adds
// otherwise are never built by the pipeline.
func checkRuns(d *core.Disassembler, label string, serial, par []core.SectionDetail) *Report {
	rep := &Report{}
	CheckAgreement(rep, label, serial, par)
	d = d.Clone(core.WithoutStats())
	for i := range par {
		s := &par[i]
		CheckDetail(rep, s.Name, s.Data, s.Detail)
		hints := CheckHintDeterminism(rep, s.Name, func() []analysis.Hint {
			return d.HintsFor(s.Detail.Graph, s.Entry)
		})
		CheckTier(rep, s.Name, hints, s.Detail)
	}
	return rep
}

// Check is the single test entry point: it runs CheckELF and fails the
// test with one error per violation.
func Check(t testing.TB, d *core.Disassembler, img []byte) {
	t.Helper()
	rep, err := CheckELF(nil, d, img)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle: %s", v)
	}
}
