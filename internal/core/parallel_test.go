package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/elfx"
	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/tier"
)

// buildMultiSectionELF assembles nsec generated text sections into one
// stripped ELF image, each section page-spaced from the previous one.
func buildMultiSectionELF(tb testing.TB, nsec, funcs int) []byte {
	tb.Helper()
	var bld elfx.Builder
	addr := uint64(0x401000)
	for i := 0; i < nsec; i++ {
		prof := synth.DefaultProfiles[i%len(synth.DefaultProfiles)]
		bin, err := synth.Generate(synth.Config{
			Seed: int64(900 + i), Profile: prof, NumFuncs: funcs, Base: addr,
		})
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			bld.Entry = bin.Entry
		}
		bld.AddSection(fmt.Sprintf(".text%d", i), addr,
			elfx.SHFAlloc|elfx.SHFExecinstr, bin.Code)
		addr = (addr + uint64(len(bin.Code)) + 0xfff) &^ 0xfff
	}
	img, err := bld.Write()
	if err != nil {
		tb.Fatal(err)
	}
	return img
}

func requireSameSections(tb testing.TB, label string, want, got []SectionDetail) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d sections vs %d", label, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Name != g.Name || w.Addr != g.Addr {
			tb.Fatalf("%s: section %d is %s@%#x vs %s@%#x",
				label, i, w.Name, w.Addr, g.Name, g.Addr)
		}
		wr, gr := w.Detail.Result, g.Detail.Result
		for off := range wr.IsCode {
			if wr.IsCode[off] != gr.IsCode[off] {
				tb.Fatalf("%s: %s IsCode diverges at +%#x", label, w.Name, off)
			}
			if wr.InstStart[off] != gr.InstStart[off] {
				tb.Fatalf("%s: %s InstStart diverges at +%#x", label, w.Name, off)
			}
		}
		if len(wr.FuncStarts) != len(gr.FuncStarts) {
			tb.Fatalf("%s: %s FuncStarts %v vs %v", label, w.Name, wr.FuncStarts, gr.FuncStarts)
		}
		for j := range wr.FuncStarts {
			if wr.FuncStarts[j] != gr.FuncStarts[j] {
				tb.Fatalf("%s: %s FuncStarts %v vs %v", label, w.Name, wr.FuncStarts, gr.FuncStarts)
			}
		}
	}
}

// TestParallelELFPipelineMatchesSerial is the tentpole determinism check:
// the parallel end-to-end ELF pipeline (section fan-out + concurrent hint
// analyses) must produce byte-identical results to the fully serial path.
func TestParallelELFPipelineMatchesSerial(t *testing.T) {
	img := buildMultiSectionELF(t, 4, 12)
	model := DefaultModel()

	ser, err := New(model, WithWorkers(1)).DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(model, WithWorkers(8)).DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSections(t, "serial vs parallel", ser, par)

	// Repeated parallel runs must also be identical to each other.
	for rep := 0; rep < 3; rep++ {
		again, err := New(model, WithWorkers(8)).DisassembleELFTraceContext(nil, img, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSections(t, fmt.Sprintf("parallel rep %d", rep), par, again)
	}
}

// TestParallelDisassembleMatchesSerialOnCorpus runs the raw-section
// pipeline serial vs parallel over one binary per synth profile and
// requires byte-identical classifications.
func TestParallelDisassembleMatchesSerialOnCorpus(t *testing.T) {
	model := DefaultModel()
	ser := New(model, WithWorkers(1))
	par := New(model, WithWorkers(8))
	for i, prof := range synth.DefaultProfiles {
		bin, err := synth.Generate(synth.Config{
			Seed: int64(400 + i), Profile: prof, NumFuncs: 25,
		})
		if err != nil {
			t.Fatal(err)
		}
		entry := int(bin.Entry - bin.Base)
		a := ser.Disassemble(bin.Code, bin.Base, entry)
		b := par.Disassemble(bin.Code, bin.Base, entry)
		for off := range a.IsCode {
			if a.IsCode[off] != b.IsCode[off] || a.InstStart[off] != b.InstStart[off] {
				t.Fatalf("%s: classification diverges at +%#x", prof.Name, off)
			}
		}
		if fmt.Sprint(a.FuncStarts) != fmt.Sprint(b.FuncStarts) {
			t.Fatalf("%s: FuncStarts %v vs %v", prof.Name, a.FuncStarts, b.FuncStarts)
		}
	}
}

// TestHintsForDeterministic: the concurrently collected hint slice
// must equal the serial one element-for-element (the canonical merge
// order), and repeated runs must not reorder it. Jump-table hints are
// emitted table by table, so equal streams imply equal tables. The
// pipeline's statistical records, walked over one whole-section window
// in several pool tasks, must stand for the stream's statistical hints,
// in order, at every worker count.
func TestHintsForDeterministic(t *testing.T) {
	model := DefaultModel()
	bin, err := synth.Generate(synth.Config{
		Seed: 77, Profile: synth.ProfileComplex, NumFuncs: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.Code) <= statPieceBytes {
		t.Fatalf("section is %d bytes, want more than one %d-byte walk piece", len(bin.Code), statPieceBytes)
	}
	g := superset.Build(bin.Code, bin.Base)
	entry := int(bin.Entry - bin.Base)

	want := New(model, WithWorkers(1)).HintsFor(g, entry)
	par := New(model, WithWorkers(8))
	for rep := 0; rep < 3; rep++ {
		got := par.HintsFor(g, entry)
		if len(got) != len(want) {
			t.Fatalf("rep %d: %d hints vs %d", rep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rep %d: hint %d = %+v, want %+v", rep, i, got[i], want[i])
			}
		}
	}

	var stat []analysis.Hint
	for _, h := range want {
		if h.Src == analysis.StatSrc {
			stat = append(stat, h)
		}
	}
	viable := analysis.Viability(g)
	whole := &tier.Partition{Windows: [][2]int{{0, g.Len()}}, Total: g.Len(), ContestedBytes: g.Len()}
	for _, workers := range []int{1, 8} {
		recs := New(model, WithWorkers(workers)).statRecords(g, viable, whole, newWorkPool(workers), nil)
		if len(recs) != len(stat) {
			t.Fatalf("workers %d: %d records, HintsFor has %d statistical hints", workers, len(recs), len(stat))
		}
		for i, r := range recs {
			if r.Hint() != stat[i] {
				t.Fatalf("workers %d: record %d stands for %+v, HintsFor has %+v", workers, i, r.Hint(), stat[i])
			}
		}
	}
}

// TestParallelDecodeMatchesBuild: a section decoded on a four-slot pool,
// one task per decodeChunkBytes range, reads the same superset graph as
// the serial superset.Build, entry for entry and anchor site for anchor
// site, with the same scan-fallback count.
func TestParallelDecodeMatchesBuild(t *testing.T) {
	code := make([]byte, 1<<20+12345) // four whole chunks and a short one
	rand.New(rand.NewSource(71)).Read(code)
	want := superset.Build(code, 0x400000)
	if want.ScanFallbackCount() == 0 {
		t.Fatal("precondition: random bytes hit no scan fallback")
	}
	det, err := New(DefaultModel(), WithWorkers(4)).DisassembleSectionTraceContext(nil, code, 0x400000, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := det.Graph
	for off := range want.Info {
		if got.Info[off] != want.Info[off] {
			t.Fatalf("Info[+%#x] = %+v, want %+v", off, got.Info[off], want.Info[off])
		}
	}
	if got.ScanFallbackCount() != want.ScanFallbackCount() {
		t.Fatalf("scan fallbacks %d, want %d", got.ScanFallbackCount(), want.ScanFallbackCount())
	}
	checkAnchorsMatch(t, got, want)
}

// checkAnchorsMatch fails the test unless got and want have the same
// anchor sites, walked with NextAnchor.
func checkAnchorsMatch(t *testing.T, got, want *superset.Graph) {
	t.Helper()
	a, b := 0, 0
	for n := 0; ; n++ {
		a, b = got.NextAnchor(a), want.NextAnchor(b)
		if a != b {
			t.Fatalf("anchor site %d at +%#x, want +%#x", n, a, b)
		}
		if a == want.Len() {
			if n == 0 {
				t.Fatal("precondition: the section has no anchor sites")
			}
			return
		}
		a, b = a+1, b+1
	}
}

// TestParallelDecodeSharedAnchorWords decodes a section in ranges whose
// boundaries are not multiples of 64, concurrently on a four-slot pool,
// so neighbouring ranges share anchor bitmap words; the graph must match
// a serial Build's. make race runs it at 1 and 4 procs.
func TestParallelDecodeSharedAnchorWords(t *testing.T) {
	code := make([]byte, 40000)
	rand.New(rand.NewSource(73)).Read(code)
	want := superset.Build(code, 0x400000)
	for _, size := range []int{1, 37, 100, 4099} {
		for rep := 0; rep < 3; rep++ {
			g := superset.New(code, 0x400000)
			newWorkPool(4).run((len(code)+size-1)/size, func(i int) {
				g.Decode(nil, i*size, min(i*size+size, len(code)))
			})
			for off := range want.Info {
				if g.Info[off] != want.Info[off] {
					t.Fatalf("size %d: Info[+%#x] = %+v, want %+v", size, off, g.Info[off], want.Info[off])
				}
			}
			checkAnchorsMatch(t, g, want)
		}
	}
}

// goid returns the calling goroutine's ID, parsed from the header line
// of its stack trace ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	id, err := strconv.ParseInt(string(line[:bytes.IndexByte(line, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// pollerCtx never cancels; it counts the cancellation polls (Done
// fetches) each goroutine makes.
type pollerCtx struct {
	context.Context
	mu    sync.Mutex
	polls map[int64]int
}

func (p *pollerCtx) Done() <-chan struct{} {
	id := goid()
	p.mu.Lock()
	p.polls[id]++
	p.mu.Unlock()
	return nil
}

// TestWorkersOneRunsOnCaller pins WithWorkers(1) as the fully serial run
// its doc promises, whatever GOMAXPROCS says: every cancellation poll of
// a section run and of a two-section ELF run (superset decode, hint
// tasks, scoring and correction all poll) comes from the calling
// goroutine.
func TestWorkersOneRunsOnCaller(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(72))
	code := make([]byte, 256<<10)
	rng.Read(code)
	var bld elfx.Builder
	bld.Entry = 0x401000
	for i, addr := range []uint64{0x401000, 0x421000} {
		sec := make([]byte, 64<<10)
		rng.Read(sec)
		bld.AddSection(fmt.Sprintf(".text%d", i), addr, elfx.SHFAlloc|elfx.SHFExecinstr, sec)
	}
	img, err := bld.Write()
	if err != nil {
		t.Fatal(err)
	}

	d := New(DefaultModel(), WithWorkers(1))
	ctx := &pollerCtx{Context: context.Background(), polls: map[int64]int{}}
	if _, err := d.DisassembleSectionTraceContext(ctx, code, 0x400000, -1, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DisassembleELFTraceContext(ctx, img, nil); err != nil {
		t.Fatal(err)
	}
	caller := goid()
	if ctx.polls[caller] == 0 {
		t.Fatal("the calling goroutine never polled the context")
	}
	for id, n := range ctx.polls {
		if id != caller {
			t.Errorf("goroutine %d polled %d times; only the caller (%d) may", id, n, caller)
		}
	}
}

// TestMalformedSectionHeaderDoesNotPoisonPipeline: an executable NOBITS
// section whose header claims a huge Size has no bytes in the image.
// Regression test: extern ranges used to be built from the header Size, so
// the phantom range legitimized branches into unmapped memory, and the
// entry offset was validated against Size instead of the bytes actually
// present.
func TestMalformedSectionHeaderDoesNotPoisonPipeline(t *testing.T) {
	img := buildMultiSectionELF(t, 2, 8)
	f, err := elfx.Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	secs := f.ExecutableSections()
	if len(secs) != 2 {
		t.Fatalf("sections = %d", len(secs))
	}
	phantomAddr := secs[1].Addr
	const phantomSize = 0x100000

	// Rewrite .text1's section header: type SHT_NOBITS, Size huge. The
	// section keeps its exec flags but now backs no bytes.
	le := binary.LittleEndian
	shoff := le.Uint64(img[40:])
	shentsize := uint64(le.Uint16(img[58:]))
	shnum := int(le.Uint16(img[60:]))
	patched := false
	for i := 0; i < shnum; i++ {
		sh := img[shoff+uint64(i)*shentsize:]
		if le.Uint64(sh[16:]) == phantomAddr && le.Uint64(sh[8:])&elfx.SHFExecinstr != 0 {
			le.PutUint32(sh[4:], elfx.SHTNobits)
			le.PutUint64(sh[32:], phantomSize)
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("section header for .text1 not found")
	}
	// Point the entry into the phantom region: it must not become an
	// in-section entry offset anywhere.
	le.PutUint64(img[24:], phantomAddr+0x500)

	d := New(DefaultModel())
	out, err := d.DisassembleELFTraceContext(nil, img, nil)
	if err != nil {
		t.Fatal(err)
	}
	var text0 *SectionDetail
	for i := range out {
		if out[i].Name == ".text0" {
			text0 = &out[i]
		}
	}
	if text0 == nil {
		t.Fatalf("no .text0 in %d sections", len(out))
	}
	// The phantom range claims no bytes, so it must not be a legitimate
	// branch-escape target for the section that does have code.
	for _, addr := range []uint64{phantomAddr, phantomAddr + 0x800, phantomAddr + phantomSize - 1} {
		if text0.Detail.Graph.ExternTarget(addr) {
			t.Errorf("phantom address %#x registered as extern target", addr)
		}
	}
	// With the phantom extern gone and the entry clamped, .text0 must
	// classify exactly like a standalone section with no entry.
	direct := d.Disassemble(text0.Data, text0.Addr, -1)
	for off := range direct.IsCode {
		if direct.IsCode[off] != text0.Detail.Result.IsCode[off] {
			t.Fatalf("ELF path diverges from direct path at +%#x", off)
		}
	}
}
