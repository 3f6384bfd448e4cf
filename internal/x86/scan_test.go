package x86

import (
	"fmt"
	"testing"
)

// scanReference computes the record Scan must produce at offset 0 of
// buf the slow way: a full decode packed by PackLean, zero Info on
// any decode error. This is the ground truth every scan test compares
// against — the fast path is only correct if it is indistinguishable
// from it.
func scanReference(buf []byte, addr uint64) Info {
	var inst Inst
	if DecodeInto(&inst, buf, addr) != nil {
		return Info{}
	}
	return PackLean(&inst)
}

// checkScanMatches asserts Scan and the reference decode agree on every
// Info field for the instruction starting at buf[0].
func checkScanMatches(t *testing.T, buf []byte, addr uint64) {
	t.Helper()
	var got [1]Info
	Scan(got[:], buf, addr, 0, 1)
	if want := scanReference(buf, addr); got[0] != want {
		t.Fatalf("scan mismatch at addr %#x for % x:\n got %+v\nwant %+v", addr, buf, got[0], want)
	}
}

// sweepPrefixes is the prefix-byte matrix for the exhaustive sweeps:
// no prefix, each legacy prefix class, the REX bits that change shape
// decisions (W for immV/movsxd/movabs, B for RSP/XCHG detection, X for
// SIB index-none), and the REX-cancellation order DecodeInto defines.
var sweepPrefixes = [][]byte{
	{},
	{0x66},
	{0x67},
	{0xf0},
	{0xf2},
	{0xf3},
	{0x65},       // segment override
	{0x40},       // REX with no bits
	{0x41},       // REX.B
	{0x42},       // REX.X
	{0x48},       // REX.W
	{0x4f},       // REX.WRXB
	{0x66, 0x48}, // opsz then REX.W
	{0x48, 0x66}, // REX cancelled by a later legacy prefix
	{0xf3, 0x41},
	{0xf0, 0x48},
}

// operandPad supplies ModRM-following bytes (SIB/displacement/immediate)
// with asymmetric values, so any confusion between disp and imm bytes,
// or any sign-extension slip, changes the packed record.
var operandPad = []byte{0x81, 0x12, 0xa3, 0x34, 0xc5, 0x56, 0xe7, 0x78, 0x09, 0x9a, 0x2b, 0xbc, 0x4d, 0xde, 0x6f}

// TestScanOpcodeSweep runs Scan against the reference decode for every
// one-byte and 0F two-byte opcode crossed with every ModRM byte, a
// representative SIB set, and the prefix matrix — plus every truncated
// prefix of each encoding, so the bounds checks take the same
// valid/invalid decision as the cursor-based decoder. Table-driven, no
// randomness; TestScanSIBSweep covers the full SIB space.
func TestScanOpcodeSweep(t *testing.T) {
	const addr = 0x4567f3
	sibs := []byte{0x00, 0x25, 0x65, 0xe5, 0x5c}
	buf := make([]byte, 0, 24)
	for opIdx := 0; opIdx < 512; opIdx++ {
		opcode := []byte{byte(opIdx)}
		if opIdx >= 256 {
			opcode = []byte{0x0f, byte(opIdx - 256)}
		}
		for pi, pfx := range sweepPrefixes {
			// The truncation sub-sweep multiplies cost ~6x but exercises
			// only length-independent bounds checks, so it runs for a
			// bare encoding and one REX.W+opsz variant rather than the
			// whole prefix matrix.
			truncate := pi == 0 || pi == 12
			for modrm := 0; modrm < 256; modrm++ {
				needSIB := modrm>>6 != 3 && modrm&7 == 4
				sibSet := sibs[:1]
				if needSIB {
					sibSet = sibs
				}
				for _, sib := range sibSet {
					buf = buf[:0]
					buf = append(buf, pfx...)
					buf = append(buf, opcode...)
					buf = append(buf, byte(modrm))
					if needSIB {
						buf = append(buf, sib)
					}
					buf = append(buf, operandPad...)
					full := buf[:len(buf):len(buf)]
					checkScanMatches(t, full, addr)
					if !truncate {
						continue
					}
					// Truncation sweep: every prefix of the encoding
					// must reach the same verdict as the reference.
					for cut := len(pfx) + len(opcode); cut < len(full); cut += 3 {
						checkScanMatches(t, full[:cut], addr)
					}
				}
			}
		}
	}
}

// TestScanSIBSweep crosses the full 256-value SIB space with every mod
// that takes one, a set of opcodes covering each ModRM consumer class
// (plain, mem-only, one-byte group, two-byte group, escape map), and
// the REX bits that reach SIB decoding.
func TestScanSIBSweep(t *testing.T) {
	const addr = 0x40200b
	opcodes := [][]byte{
		{0x89},             // mov rm, r
		{0x8d},             // lea (mem-only)
		{0x83},             // grp1 imm8
		{0xff},             // grp5
		{0xc7},             // grp11 immZ
		{0x0f, 0x1f},       // multi-byte nop
		{0x0f, 0xc7},       // grp9 (mem-only member)
		{0x0f, 0x38, 0x00}, // escape map
	}
	rexes := [][]byte{{}, {0x41}, {0x42}, {0x43}, {0x48}, {0x4f}, {0x66}}
	buf := make([]byte, 0, 24)
	for _, opcode := range opcodes {
		for _, pfx := range rexes {
			for mod := 0; mod < 3; mod++ {
				for reg := 0; reg < 8; reg++ {
					modrm := byte(mod<<6 | reg<<3 | 4)
					for sib := 0; sib < 256; sib++ {
						buf = buf[:0]
						buf = append(buf, pfx...)
						buf = append(buf, opcode...)
						buf = append(buf, modrm, byte(sib))
						buf = append(buf, operandPad...)
						checkScanMatches(t, buf[:len(buf):len(buf)], addr)
					}
				}
			}
		}
	}
}

// TestScanEdgeVectors pins the cases where the packed encoding itself
// has cliffs: int32-range checks on branch and memory deltas, address
// arithmetic at the top of the address space, moffs widths, and the
// opcode quirks applySpecial patches in.
func TestScanEdgeVectors(t *testing.T) {
	vectors := []struct {
		name string
		addr uint64
		code []byte
	}{
		{"jmp-rel32-max", 0x400000, []byte{0xe9, 0xfd, 0xff, 0xff, 0x7f}},       // len+imm overflows int32
		{"jmp-rel32-fits", 0x400000, []byte{0xe9, 0xf0, 0xff, 0xff, 0x7f}},      // just inside
		{"call-rel32-min", 0x400000, []byte{0xe8, 0x00, 0x00, 0x00, 0x80}},      // most negative
		{"jcc-rel8-back", 0x400000, []byte{0x75, 0x80}},                         // short branch, negative
		{"loopne", 0x400000, []byte{0xe0, 0x10}},                                // rel8 without Jcc family
		{"rip-mem", 0x400000, []byte{0x48, 0x8b, 0x05, 0x10, 0x00, 0x00, 0x00}}, // mov rax, [rip+0x10]
		{"rip-mem-wrap", ^uint64(0) - 3, []byte{0x8b, 0x05, 0x10, 0x00, 0x00, 0x00}},
		{"abs-mem-near", 0x400000, []byte{0xff, 0x24, 0x25, 0x00, 0x10, 0x40, 0x00}}, // jmp [0x401000]
		{"abs-mem-far", 0x400000, []byte{0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x90}},  // negative disp32: delta overflow
		{"abs-mem-idx", 0x400000, []byte{0x8b, 0x04, 0xa5, 0x00, 0x10, 0x40, 0x00}},  // index present: unresolved
		{"push-rsp-sub", 0x400000, []byte{0x48, 0x83, 0xec, 0x28}},                   // sub rsp, 0x28
		{"add-rsp-imm", 0x400000, []byte{0x48, 0x83, 0xc4, 0x28}},
		{"add-r12-imm", 0x400000, []byte{0x49, 0x83, 0xc4, 0x28}}, // REX.B: r12, not rsp
		{"ret-imm16", 0x400000, []byte{0xc2, 0x08, 0x00}},
		{"retf-imm16", 0x400000, []byte{0xca, 0x08, 0x00}}, // no stack delta for RETF
		{"nop", 0x400000, []byte{0x90}},
		{"pause", 0x400000, []byte{0xf3, 0x90}},
		{"xchg-r8", 0x400000, []byte{0x49, 0x90}},
		{"rex-nop", 0x400000, []byte{0x48, 0x90}},
		{"nop-66", 0x400000, []byte{0x66, 0x90}},
		{"movabs", 0x400000, []byte{0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"mov-imm32", 0x400000, []byte{0xb8, 1, 2, 3, 4}},
		{"mov-imm16", 0x400000, []byte{0x66, 0xb8, 1, 2}},
		{"movsxd-norex", 0x400000, []byte{0x63, 0xc1}},
		{"movsxd-rex", 0x400000, []byte{0x48, 0x63, 0xc1}},
		{"jmpe-rare", 0x400000, []byte{0x0f, 0xb8, 0xc1}},
		{"popcnt", 0x400000, []byte{0xf3, 0x0f, 0xb8, 0xc1}},
		{"tzcnt", 0x400000, []byte{0xf3, 0x0f, 0xbc, 0xc1}},
		{"bsf", 0x400000, []byte{0x0f, 0xbc, 0xc1}},
		{"lock-reg-rare", 0x400000, []byte{0xf0, 0x01, 0xc1}},
		{"lock-mem", 0x400000, []byte{0xf0, 0x01, 0x01}},
		{"moffs", 0x400000, []byte{0xa1, 1, 2, 3, 4, 5, 6, 7, 8}},
		{"moffs-addr32", 0x400000, []byte{0x67, 0xa1, 1, 2, 3, 4}},
		{"enter", 0x400000, []byte{0xc8, 0x20, 0x00, 0x01}},
		{"seg-mov", 0x400000, []byte{0x65, 0x48, 0x8b, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00}},
		{"lea-reg-invalid", 0x400000, []byte{0x8d, 0xc1}},
		{"prefix-limit", 0x400000, []byte{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90}},
		{"prefix-over-limit", 0x400000, []byte{0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x90}},
		{"vex2", 0x400000, []byte{0xc5, 0xf8, 0x10, 0xc1}},
		{"vex3", 0x400000, []byte{0xc4, 0xe2, 0x79, 0x18, 0x05, 0, 0, 0, 0}},
		{"evex", 0x400000, []byte{0x62, 0xf1, 0x7c, 0x48, 0x10, 0xc1}},
		{"grp9-mem", 0x400000, []byte{0x0f, 0xc7, 0x08}},
		{"grp9-reg-invalid", 0x400000, []byte{0x0f, 0xc7, 0xc8}},
		{"pshift-reg", 0x400000, []byte{0x0f, 0x71, 0xd0, 0x04}},
		{"pshift-mem-invalid", 0x400000, []byte{0x0f, 0x71, 0x10, 0x04}},
		// The record's derived and sentinel cases: stack deltas kept in
		// Delta (RET, register-form ADD/SUB, with -2^31 wrapping exactly
		// as stackEffect's int32 does), a stack delta of 0 beside a memory
		// delta, one derived from Op beside a memory delta, a direct call,
		// and an absolute operand whose true delta is exactly -2^31, which
		// must take the re-decode sentinel.
		{"ret", 0x400000, []byte{0xc3}},
		{"sub-rsp-min", 0x400000, []byte{0x48, 0x81, 0xec, 0x00, 0x00, 0x00, 0x80}},
		{"add-rip-mem-imm8", 0x400000, []byte{0x48, 0x83, 0x05, 0x10, 0x00, 0x00, 0x00, 0x08}},
		{"push-rip-mem", 0x400000, []byte{0xff, 0x35, 0x10, 0x00, 0x00, 0x00}},
		{"call-rel32", 0x400000, []byte{0xe8, 0x10, 0x00, 0x00, 0x00}},
		{"abs-mem-delta-min", 0x80000000, []byte{0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x00}},
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			checkScanMatches(t, v.code, v.addr)
			var got [1]Info
			Scan(got[:], v.code, v.addr, 0, 1)
			checkAccessors(t, got[0], v.code, v.addr)
		})
	}
}

// TestScanMatchesDecodeAllOffsets runs the whole-buffer Scan entry
// point (the exact superset-build call pattern, including the
// decode-against-full-tail semantics) over adversarially mixed bytes
// and checks every offset against the reference.
func TestScanMatchesDecodeAllOffsets(t *testing.T) {
	// A code-and-junk mix: real function material, literal-pool bytes,
	// VEX/EVEX escape bytes mid-stream, and a descending byte ramp.
	var buf []byte
	buf = append(buf, 0x55, 0x48, 0x89, 0xe5, 0x48, 0x83, 0xec, 0x20)
	buf = append(buf, 0xe8, 0x12, 0x00, 0x00, 0x00, 0x85, 0xc0, 0x75, 0xf4)
	buf = append(buf, 0xc4, 0xe2, 0x79, 0x18, 0x05, 0x00, 0x01, 0x00, 0x00)
	buf = append(buf, 0xc5, 0xf8, 0x10, 0x41, 0x10, 0x62, 0xf1, 0x7c, 0x48, 0x10, 0xc1)
	for b := 0; b < 256; b++ {
		buf = append(buf, byte(255-b))
	}
	buf = append(buf, 0xf3, 0x0f, 0x1e, 0xfa, 0x0f, 0x1f, 0x84, 0x00, 0, 0, 0, 0)
	buf = append(buf, 0xc3)

	for _, base := range []uint64{0x401000, 0x7ffffff0, ^uint64(0) - 64} {
		dst := make([]Info, len(buf))
		Scan(dst, buf, base, 0, len(buf))
		for off := range buf {
			want := scanReference(buf[off:], base+uint64(off))
			if dst[off] != want {
				t.Fatalf("offset %d base %#x: got %+v want %+v", off, base, dst[off], want)
			}
		}
	}
}

// TestScanFallbacksOnlyVEX pins the fallback contract: the only
// encodings Scan delegates to the full decoder are the C4/C5/62
// escapes, so the fallback counter stays a meaningful coverage signal.
func TestScanFallbacksOnlyVEX(t *testing.T) {
	var dst [1]Info
	for b := 0; b < 256; b++ {
		code := []byte{byte(b), 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}
		fb := Scan(dst[:], code, 0x401000, 0, 1)
		wantFB := 0
		if b == 0xc4 || b == 0xc5 || b == 0x62 {
			wantFB = 1
		}
		if fb != wantFB {
			t.Errorf("first byte %#02x: fallbacks = %d, want %d", b, fb, wantFB)
		}
	}
}

// FuzzScanMatchesDecode is the differential fuzzer: on arbitrary bytes
// and addresses, Scan must be byte-identical to DecodeInto+PackLean
// at every offset, and every accessor of the record must read what
// DecodeInto states. Run with
// `go test -fuzz=FuzzScanMatchesDecode ./internal/x86`.
func FuzzScanMatchesDecode(f *testing.F) {
	seeds := [][]byte{
		{0x90},
		{0x48, 0x89, 0xe5},
		{0xe8, 0x00, 0x00, 0x00, 0x00},
		{0xff, 0x24, 0xc5, 0x00, 0x10, 0x40, 0x00},
		{0x66, 0x0f, 0x3a, 0x22, 0xc0, 0x01},
		{0xc4, 0xe2, 0x79, 0x18, 0x05, 0, 0, 0, 0},
		{0xc5, 0xf8, 0x10, 0xc1},
		{0xf0, 0x48, 0x0f, 0xb1, 0x0f},
		{0x62, 0xf1, 0x7c, 0x48, 0x10, 0xc1},
		{0x48, 0x83, 0xec, 0x28, 0xc2, 0x08, 0x00},
		{0xe9, 0xfd, 0xff, 0xff, 0x7f},
		{0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x90},
		{0x67, 0xa1, 1, 2, 3, 4},
		{0x66, 0x66, 0x2e, 0x0f, 0x1f, 0x84, 0x00, 0, 0, 0, 0},
		{0x48, 0x81, 0xec, 0x00, 0x00, 0x00, 0x80, 0xc3},
		{0x48, 0x83, 0x05, 0x10, 0x00, 0x00, 0x00, 0x08, 0xff, 0x35, 0x10, 0x00, 0x00, 0x00},
	}
	for _, s := range seeds {
		f.Add(s, uint64(0x401000))
	}
	f.Add([]byte{0x8b, 0x04, 0x25, 0x00, 0x00, 0x00, 0x00}, uint64(0x80000000))
	f.Fuzz(func(t *testing.T, code []byte, addr uint64) {
		if len(code) == 0 || len(code) > 1<<12 {
			return
		}
		dst := make([]Info, len(code))
		fb := Scan(dst, code, addr, 0, len(code))
		if fb < 0 || fb > len(code) {
			t.Fatalf("fallback count %d out of range", fb)
		}
		for off := range code {
			want := scanReference(code[off:], addr+uint64(off))
			if dst[off] != want {
				t.Fatalf("offset %d: got %+v want %+v (bytes % x)",
					off, dst[off], want, code[off:min(off+16, len(code))])
			}
			checkAccessors(t, dst[off], code[off:], addr+uint64(off))
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestScanChunkedMatchesWhole pins the property superset.Graph.Decode
// relies on, within one range and across the ranges a caller tiles:
// scanning a range in arbitrary chunk splits yields the same records as
// one whole-range call, because every offset decodes against the full
// remaining section regardless of chunking.
func TestScanChunkedMatchesWhole(t *testing.T) {
	var buf []byte
	for b := 0; b < 256; b++ {
		buf = append(buf, byte(b), 0x48, byte(255-b))
	}
	whole := make([]Info, len(buf))
	Scan(whole, buf, 0x401000, 0, len(buf))
	for _, chunk := range []int{1, 7, 64, 333} {
		got := make([]Info, len(buf))
		for from := 0; from < len(buf); from += chunk {
			to := from + chunk
			if to > len(buf) {
				to = len(buf)
			}
			Scan(got[from:to], buf, 0x401000, from, to)
		}
		for i := range whole {
			if got[i] != whole[i] {
				t.Fatalf("chunk %d: offset %d differs: %+v vs %+v", chunk, i, got[i], whole[i])
			}
		}
	}
}

// TestScanGroupTableGeneration sanity-checks the init-generated group
// member tables against hand-known facts, guarding the generator (the
// sweep tests guard the members' effect on decoding).
func TestScanGroupTableGeneration(t *testing.T) {
	lookup := func(opc byte, twobyte bool) scanEntry {
		if twobyte {
			return scanTwo[opc]
		}
		return scanOne[opc]
	}
	cases := []struct {
		opc     byte
		twobyte bool
		form    int // 0 mem, 1 reg
		reg     int
		ok      bool
		op      Op
		flow    Flow
	}{
		{0xff, false, 0, 2, true, CALL, FlowIndirectCall},
		{0xff, false, 1, 2, true, CALL, FlowIndirectCall},
		{0xff, false, 0, 3, true, CALL, FlowIndirectCall}, // far call: mem only
		{0xff, false, 1, 3, false, 0, 0},
		{0xff, false, 0, 6, true, PUSH, FlowSeq},
		{0xff, false, 0, 7, false, 0, 0},
		{0x8f, false, 0, 0, true, POP, FlowSeq},
		{0x8f, false, 0, 1, false, 0, 0},
		{0xf7, false, 1, 0, true, TEST, FlowSeq},
		{0xf7, false, 1, 4, true, MUL, FlowSeq},
		{0xc7, false, 0, 0, true, MOV, FlowSeq},
		{0xc7, false, 0, 1, false, 0, 0},
		{0xc7, true, 0, 1, true, CMPXCHG8B, FlowSeq}, // 0F C7 /1 cmpxchg8b
		{0xc7, true, 1, 1, false, 0, 0},              // ...requires mem
		{0x71, true, 1, 2, true, PSHIFT, FlowSeq},
		{0x71, true, 0, 2, false, 0, 0}, // vector shifts are reg-form only
		{0xba, true, 1, 3, false, 0, 0},
		{0xba, true, 1, 4, true, BT, FlowSeq},
	}
	for _, c := range cases {
		se := lookup(c.opc, c.twobyte)
		if se.fl&sGroup == 0 {
			t.Fatalf("opcode %#02x (twobyte=%v) not a group entry", c.opc, c.twobyte)
		}
		m := scanGroups[se.grp-1][c.form][c.reg]
		name := fmt.Sprintf("%#02x/%d form %d", c.opc, c.reg, c.form)
		if m.ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", name, m.ok, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if m.op != c.op || m.flow != c.flow {
			t.Errorf("%s: got op %v flow %v, want %v %v", name, m.op, m.flow, c.op, c.flow)
		}
	}
}
