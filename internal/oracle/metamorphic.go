package oracle

import (
	"bytes"
	"fmt"
	"testing"

	"probedis/internal/core"
	"probedis/internal/dis"
	"probedis/internal/elfx"
	"probedis/internal/eval"
	"probedis/internal/synth"
)

// A Variant is one truth-preserving transform of a synthetic binary: an
// ELF image whose executable content is equivalent to the baseline, so the
// truth-relative metrics must not change (Exact) or may drift only within
// the stated tolerances (boundary effects of re-sectioning).
type Variant struct {
	Name  string
	Img   []byte
	Truth *synth.Truth
	// Secs names the executable sections, in address order, whose
	// concatenated classifications cover Truth.
	Secs []string

	// Exact requires byte-identical metrics against the baseline. When
	// false, ByteErrTol / InstF1Tol bound the allowed absolute drift of
	// ByteErrRate and InstF1.
	Exact      bool
	ByteErrTol float64
	InstF1Tol  float64
}

const execFlags = elfx.SHFAlloc | elfx.SHFExecinstr

// rebaseDelta moves the image by a page multiple so the ELF layout stays
// page-congruent.
const rebaseDelta = 0x40000

// coldNobitsSize is deliberately huge: with the pre-PR1 "extern ranges
// from header Size" bug, the phantom range swallows every escaping branch
// within rel32 reach and visibly changes the classification.
const coldNobitsSize = 0x4000_0000

// Variants builds the metamorphic transform catalogue for one generation
// config: the baseline binary plus its truth-preserving variants.
//
//	rebase     same generation stream linked at Base+delta — byte truth is
//	           structurally identical, only absolute addresses move
//	split      the text section split at a mid-corpus function boundary
//	           into two adjacent executable sections
//	cold-nobits a phantom SHT_NOBITS executable section (huge Size, no
//	           bytes) appended — must not influence the real section
//	cold-progbits an int3-filled cold section 4 GiB away (outside rel32
//	           reach) appended — must not influence the real section
//	pad-inject regenerated with 8x function alignment (extra NOP padding
//	           between functions; PadNop profiles only, where padding
//	           consumes no generator randomness)
func Variants(cfg synth.Config) (*synth.Binary, []Variant, error) {
	bin, err := synth.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	base := bin.Base
	var vs []Variant

	// rebase
	cfg2 := cfg
	if cfg2.Base == 0 {
		cfg2.Base = base
	}
	cfg2.Base += rebaseDelta
	reb, err := synth.Generate(cfg2)
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: rebase generation: %w", err)
	}
	if err := sameTruthShape(bin.Truth, reb.Truth); err != nil {
		return nil, nil, fmt.Errorf("oracle: rebase transform not truth-preserving: %w", err)
	}
	rimg, err := reb.ELF()
	if err != nil {
		return nil, nil, err
	}
	vs = append(vs, Variant{
		Name: "rebase", Img: rimg, Truth: reb.Truth, Secs: []string{".text"}, Exact: true,
	})

	// split
	cut := splitPoint(bin)
	if cut > 0 {
		var bld elfx.Builder
		bld.Entry = bin.Entry
		bld.AddSection(".text", base, execFlags, bin.Code[:cut])
		bld.AddSection(".text.hi", base+uint64(cut), execFlags, bin.Code[cut:])
		img, err := bld.Write()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, Variant{
			Name: "split", Img: img, Truth: bin.Truth, Secs: []string{".text", ".text.hi"},
			ByteErrTol: 0.01, InstF1Tol: 0.01,
		})
	}

	// cold-nobits
	{
		var bld elfx.Builder
		bld.Entry = bin.Entry
		bld.AddSection(".text", base, execFlags, bin.Code)
		bld.AddNobits(".text.cold", base+0x200000, execFlags, coldNobitsSize)
		img, err := bld.Write()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, Variant{
			Name: "cold-nobits", Img: img, Truth: bin.Truth, Secs: []string{".text"}, Exact: true,
		})
	}

	// cold-progbits, 4 GiB away: no rel32 branch from .text can reach it,
	// so registering it as an extern range must not change anything.
	{
		var bld elfx.Builder
		bld.Entry = bin.Entry
		bld.AddSection(".text", base, execFlags, bin.Code)
		bld.AddSection(".text.cold", base+(1<<32), execFlags, bytes.Repeat([]byte{0xcc}, 64))
		img, err := bld.Write()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, Variant{
			Name: "cold-progbits", Img: img, Truth: bin.Truth, Secs: []string{".text"}, Exact: true,
		})
	}

	// pad-inject (PadNop only: INT3/zero/mixed padding draws from the
	// generator's RNG, so changing Align would shift the whole stream).
	if cfg.Profile.Pad == synth.PadNop && cfg.Profile.Align > 1 {
		cfg3 := cfg
		cfg3.Profile.Align = cfg.Profile.Align * 8
		padded, err := synth.Generate(cfg3)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: pad-inject generation: %w", err)
		}
		pimg, err := padded.ELF()
		if err != nil {
			return nil, nil, err
		}
		vs = append(vs, Variant{
			Name: "pad-inject", Img: pimg, Truth: padded.Truth, Secs: []string{".text"},
			ByteErrTol: 0.01, InstF1Tol: 0.01,
		})
	}
	return bin, vs, nil
}

// sameTruthShape verifies two truths are structurally identical (the
// definition of a truth-preserving relink).
func sameTruthShape(a, b *synth.Truth) error {
	if len(a.Classes) != len(b.Classes) {
		return fmt.Errorf("sizes differ: %d vs %d", len(a.Classes), len(b.Classes))
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] || a.InstStart[i] != b.InstStart[i] {
			return fmt.Errorf("truth diverges at %#x", i)
		}
	}
	if len(a.FuncStarts) != len(b.FuncStarts) {
		return fmt.Errorf("function counts differ")
	}
	for i := range a.FuncStarts {
		if a.FuncStarts[i] != b.FuncStarts[i] {
			return fmt.Errorf("function start %d differs", i)
		}
	}
	return nil
}

// splitPoint picks the ground-truth function start nearest the middle of
// the section (0 when the binary has no interior function boundary).
func splitPoint(b *synth.Binary) int {
	best, mid := 0, len(b.Code)/2
	for _, f := range b.Truth.FuncStarts {
		if f == 0 || f >= len(b.Code) {
			continue
		}
		if best == 0 || abs(f-mid) < abs(best-mid) {
			best = f
		}
	}
	return best
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ScoreImage disassembles img and scores the named executable sections,
// stitched in address order, against truth. Every listed section must be
// present; together they must cover exactly len(truth.Classes) bytes.
func ScoreImage(d *core.Disassembler, img []byte, secNames []string, truth *synth.Truth) (eval.Metrics, error) {
	secs, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		return eval.Metrics{}, err
	}
	picked := make([]*core.SectionDetail, 0, len(secNames))
	for _, name := range secNames {
		found := false
		for i := range secs {
			if secs[i].Name == name {
				picked = append(picked, &secs[i])
				found = true
				break
			}
		}
		if !found {
			return eval.Metrics{}, fmt.Errorf("oracle: section %q missing from image", name)
		}
	}
	base := picked[0].Addr
	total := 0
	for _, s := range picked {
		total += len(s.Data)
	}
	if total != len(truth.Classes) {
		return eval.Metrics{}, fmt.Errorf("oracle: sections cover %d bytes, truth has %d", total, len(truth.Classes))
	}
	merged := dis.NewResult(base, total)
	for _, s := range picked {
		off := int(s.Addr - base)
		res := s.Detail.Result
		copy(merged.IsCode[off:], res.IsCode)
		copy(merged.InstStart[off:], res.InstStart)
		for _, f := range res.FuncStarts {
			merged.FuncStarts = append(merged.FuncStarts, f+off)
		}
	}
	return eval.ScoreTruth(truth, merged), nil
}

// Metamorphic generates the variant catalogue for cfg, runs the pipeline
// on the baseline and every variant, and reports any metric change beyond
// the variant's contract. Full structural checks run on the baseline image
// as part of the pass.
func Metamorphic(d *core.Disassembler, cfg synth.Config) (*Report, error) {
	bin, vs, err := Variants(cfg)
	if err != nil {
		return nil, err
	}
	img, err := bin.ELF()
	if err != nil {
		return nil, err
	}
	rep, err := CheckELF(nil, d, img)
	if err != nil {
		return nil, err
	}
	m0, err := ScoreImage(d, img, []string{".text"}, bin.Truth)
	if err != nil {
		return nil, err
	}
	for i := range vs {
		compareVariant(rep, d, &vs[i], m0)
	}
	return rep, nil
}

// compareVariant scores one variant and checks its contract against the
// baseline metrics.
func compareVariant(rep *Report, d *core.Disassembler, v *Variant, m0 eval.Metrics) {
	m, err := ScoreImage(d, v.Img, v.Secs, v.Truth)
	if err != nil {
		rep.addf(InvMetamorphic, v.Name, -1, "variant failed to score: %v", err)
		return
	}
	if v.Exact {
		if m != m0 {
			rep.addf(InvMetamorphic, v.Name, -1,
				"metrics changed under a truth-preserving transform: baseline %+v, variant %+v", m0, m)
		}
		return
	}
	if d := m.ByteErrRate() - m0.ByteErrRate(); d > v.ByteErrTol || d < -v.ByteErrTol {
		rep.addf(InvMetamorphic, v.Name, -1,
			"byte error rate drifted %.4f (baseline %.4f, variant %.4f, tol %.4f)",
			d, m0.ByteErrRate(), m.ByteErrRate(), v.ByteErrTol)
	}
	if d := m.InstF1() - m0.InstF1(); d > v.InstF1Tol || d < -v.InstF1Tol {
		rep.addf(InvMetamorphic, v.Name, -1,
			"instruction F1 drifted %.4f (baseline %.4f, variant %.4f, tol %.4f)",
			d, m0.InstF1(), m.InstF1(), v.InstF1Tol)
	}
}

// CheckMetamorphic is the test entry point for the metamorphic suite.
func CheckMetamorphic(t testing.TB, d *core.Disassembler, cfg synth.Config) {
	t.Helper()
	rep, err := Metamorphic(d, cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle: %s", v)
	}
}
