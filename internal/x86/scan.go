package x86

// This file is the length-only superset pre-decode kernel: Scan fills a
// packed Info record for every byte offset of a section in one tight
// loop, without materializing an Inst. DecodeInto answers a richer
// question than superset construction needs — operand roles, register
// effects, rendering registers — and resets a ~128-byte struct per
// offset to do it. The superset side-table only needs Len, Flow, Op,
// Tok, the flags, Delta and the stack delta, all of which are a function
// of the prefix bytes, the opcode-map entry and the ModRM/SIB/
// displacement/immediate *shape*. Scan walks exactly that shape, driven
// by compact dispatch tables derived at init from the same oneByte/
// twoByte metadata DecodeInto uses, so the two can never disagree on
// opcode facts — and a differential test plus fuzzer pin byte-identical
// output anyway.
//
// Encodings the shape tables do not classify — the VEX (C4/C5) and
// EVEX (62) escapes, whose opcode map is selected by payload bytes —
// bail to the general decoder, DecodeInto + PackLean. Correctness never
// depends on the fast path: the fallback produces the same record the
// eager builder always produced, and the bail count is surfaced as the
// superset span's scan_fallbacks counter (in /metrics,
// probedis_stage_counters_total{stage="superset",counter="scan_fallbacks"})
// so a table-coverage regression is visible, not silent.

// scanEntry shape bits.
const (
	sModRM   uint8 = 1 << iota // ModRM byte follows
	sMemOnly                   // ModRM mod=11 is invalid (lea)
	sGroup                     // ModRM.reg selects the member (grp points into scanGroups)
	sInvalid                   // undefined encoding
	sBail                      // not table-classifiable: fall back to DecodeInto
	sQuirk                     // opcode has an applySpecial rewrite (90, b8-bf, 63, 0f b8/bc/bd)
)

// scanEntry is one opcode's compact shape record: everything the
// length-only walk needs, precomputed from the decode tables.
type scanEntry struct {
	op    Op
	flow  Flow
	imm   immKind
	fl    uint8
	grp   uint8  // 1-based scanGroups index when sGroup is set
	flags uint16 // precomputed Info flag bits (flagRare)
}

// scanGroup is one resolved group member (opcode × ModRM.reg × form).
type scanGroup struct {
	op   Op
	flow Flow
	imm  immKind
	ok   bool // member exists in this form
	rare bool
}

var (
	scanOne [256]scanEntry
	scanTwo [256]scanEntry
	// scanGroups[g-1][form][reg] resolves group member entries; form 0
	// is the memory form (mod != 3), form 1 the register form.
	scanGroups [][2][8]scanGroup
)

// Prefix classification codes (prefixClass values).
const (
	pNone byte = iota
	pOpsz
	pAddrsz
	pLock
	pRepne
	pRep
	pSeg
	pRex
)

// prefixClass classifies a first byte in one load: the prefix loop's
// hot exit is "not a prefix", and a table lookup beats the comparison
// chain on every offset of a superset scan.
var prefixClass = func() (t [256]byte) {
	t[0x66] = pOpsz
	t[0x67] = pAddrsz
	t[0xf0] = pLock
	t[0xf2] = pRepne
	t[0xf3] = pRep
	for _, b := range []byte{0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65} {
		t[b] = pSeg
	}
	for b := 0x40; b <= 0x4f; b++ {
		t[b] = pRex
	}
	return
}()

func init() { buildScanTables() }

// buildScanTables derives the scan dispatch tables from the decode
// tables. Group member shapes are generated by calling resolveGroup
// itself for every (opcode, reg, form) combination, so the scan tables
// are a projection of the real decoder, not a parallel transcription.
func buildScanTables() {
	conv := func(b byte, e entry, twobyte bool) scanEntry {
		if e.fl&(fInvalid|fPrefix|fEscape) != 0 {
			return scanEntry{fl: sInvalid}
		}
		se := scanEntry{op: e.op, flow: e.flow, imm: e.imm}
		if e.fl&fModRM != 0 {
			se.fl |= sModRM
		}
		if e.fl&fMemOnly != 0 {
			se.fl |= sMemOnly
		}
		if e.fl&fRare != 0 {
			se.flags |= flagRare
		}
		if e.fl&fGroup != 0 {
			se.fl |= sGroup
			se.grp = registerScanGroup(b, twobyte, e)
		}
		return se
	}
	for b := 0; b < 256; b++ {
		scanOne[b] = conv(byte(b), oneByte[b], false)
		scanTwo[b] = conv(byte(b), twoByte[b], true)
	}
	// Opcodes applySpecial rewrites; everything else skips the quirk
	// switch entirely.
	for _, b := range []byte{0x63, 0x90, 0xb8, 0xb9, 0xba, 0xbb, 0xbc, 0xbd, 0xbe, 0xbf} {
		scanOne[b].fl |= sQuirk
	}
	for _, b := range []byte{0xb8, 0xbc, 0xbd} {
		scanTwo[b].fl |= sQuirk
	}
	// The VEX/EVEX escapes select their opcode map from payload bytes;
	// classify via the full decoder instead of growing a third table.
	scanOne[0x62] = scanEntry{fl: sBail}
	scanOne[0xc4] = scanEntry{fl: sBail}
	scanOne[0xc5] = scanEntry{fl: sBail}
}

// registerScanGroup materializes one group opcode's member table by
// running resolveGroup for each reg value in both ModRM forms.
func registerScanGroup(b byte, twobyte bool, base entry) uint8 {
	var g [2][8]scanGroup
	// resolveGroup receives the byte DecodeInto hands to finish: the
	// first opcode byte. For two-byte groups that is the 0x0f escape, so
	// the one-byte switch falls through and inst.Opcode selects the
	// member (0f c7 must not hit the one-byte c7 grp11 case).
	opcode, resolveOp := uint16(b), b
	if twobyte {
		opcode, resolveOp = 0x0f00|uint16(b), 0x0f
	}
	for form := 0; form < 2; form++ {
		for reg := 0; reg < 8; reg++ {
			inst := &Inst{Opcode: opcode, HasMem: form == 0}
			modrm := byte(reg << 3)
			if form == 1 {
				modrm |= 0xc0
			}
			em, err := resolveGroup(&decodeState{}, inst, base, resolveOp, modrm)
			if err != nil {
				continue
			}
			if em.fl&fMemOnly != 0 && form == 1 {
				continue // member requires a memory operand
			}
			g[form][reg] = scanGroup{
				op:   em.op,
				flow: em.flow,
				imm:  em.imm,
				ok:   true,
				rare: em.fl&fRare != 0,
			}
		}
	}
	scanGroups = append(scanGroups, g)
	return uint8(len(scanGroups))
}

// scanAt outcome codes.
const (
	scanOK      = iota // out holds the packed record
	scanInvalid        // no valid instruction at this offset
	scanBail           // not table-classifiable: caller must full-decode
)

// Scan decodes every offset in [from, to) against the remaining section
// (code[off:], exactly like the eager builder) and writes the packed
// record for offset from+i into dst[i]; offsets with no valid decode
// get a zero Info. dst must have at least to-from elements. Encodings
// the shape tables cannot classify are delegated to DecodeInto;
// the returned count is the number of such fallbacks (0 on typical
// sections — only VEX/EVEX-prefixed offsets take it).
func Scan(dst []Info, code []byte, base uint64, from, to int) (fallbacks int) {
	var inst Inst
	for off := from; off < to; off++ {
		d := &dst[off-from]
		switch scanAt(d, code[off:], base+uint64(off)) {
		case scanOK:
		case scanBail:
			fallbacks++
			if DecodeInto(&inst, code[off:], base+uint64(off)) != nil {
				*d = Info{}
			} else {
				*d = PackLean(&inst)
			}
		default:
			*d = Info{}
		}
	}
	return fallbacks
}

// scanAt classifies the instruction starting at code[0] (virtual
// address addr) and, on scanOK, writes its packed record to out. It
// mirrors DecodeInto's walk — prefix loop, opcode dispatch, ModRM/SIB/
// displacement, group resolution, immediate, opcode quirks — but only
// ever computes the Info projection.
func scanAt(out *Info, code []byte, addr uint64) int {
	limit := len(code)
	if limit > MaxInstLen {
		limit = MaxInstLen
	}

	// Prefix loop. A REX byte must immediately precede the opcode; a
	// legacy prefix after REX cancels it (rex is only consulted when it
	// was the last prefix, so cancellation just zeroes it).
	var rex byte // 0x40..0x4f, or 0 when absent/cancelled
	var opsz, addrsz, lock, rep, seg bool
	pos := 0
	for {
		if pos >= limit {
			return scanInvalid
		}
		b := code[pos]
		pc := prefixClass[b]
		if pc == pNone {
			break
		}
		switch pc {
		case pOpsz:
			opsz, rex = true, 0
		case pAddrsz:
			addrsz, rex = true, 0
		case pLock:
			lock, rex = true, 0
		case pRepne:
			rex = 0 // repne: consumed, but no Info field depends on it
		case pRep:
			rep, rex = true, 0
		case pSeg:
			seg, rex = true, 0
		default:
			rex = b
		}
		pos++
		if pos > 14 { // same prefix-count bound as DecodeInto
			return scanInvalid
		}
	}

	opByte := code[pos]
	pos++
	var se scanEntry
	var tok uint16
	opMap := 0 // 0 = one-byte, 1 = 0F, 2 = 0F38, 3 = 0F3A
	if opByte == 0x0f {
		if pos >= limit {
			return scanInvalid
		}
		op2 := code[pos]
		pos++
		if op2 == 0x38 || op2 == 0x3a {
			if pos >= limit {
				return scanInvalid
			}
			op3 := code[pos]
			pos++
			if op2 == 0x38 {
				se = scanEntry{op: ESC38, fl: sModRM}
				opMap, tok = 2, 2<<8|uint16(op3)
			} else {
				se = scanEntry{op: ESC3A, fl: sModRM, imm: imm8}
				opMap, tok = 3, 3<<8|uint16(op3)
			}
		} else {
			se = scanTwo[op2]
			opMap, tok = 1, 1<<8|uint16(op2)
			opByte = op2
		}
	} else {
		se = scanOne[opByte]
		tok = uint16(opByte)
	}
	if se.fl&(sInvalid|sBail) != 0 {
		if se.fl&sBail != 0 {
			return scanBail
		}
		return scanInvalid
	}

	op := se.op
	flow := se.flow
	imK := se.imm
	flags := se.flags

	// ModRM / SIB / displacement shape walk. Only the facts Info needs
	// survive: memory-operand presence and resolvability, and whether
	// the register form names RSP (stack-delta tracking).
	var hasMem, ripRel, absMem, rmIsRSP bool
	var memDisp int32
	if se.fl&sModRM != 0 {
		if pos >= limit {
			return scanInvalid
		}
		modrm := code[pos]
		pos++
		mod := modrm >> 6
		rm := modrm & 7
		if mod == 3 {
			if se.fl&sMemOnly != 0 {
				return scanInvalid
			}
			rmIsRSP = rm == 4 && rex&1 == 0
		} else {
			hasMem = true
			if rm == 4 { // SIB
				if pos >= limit {
					return scanInvalid
				}
				sib := code[pos]
				pos++
				if sib&7 == 5 && mod == 0 {
					// No base, disp32 follows; absolute when no index.
					if pos+4 > limit {
						return scanInvalid
					}
					memDisp = int32(uint32(code[pos]) | uint32(code[pos+1])<<8 |
						uint32(code[pos+2])<<16 | uint32(code[pos+3])<<24)
					pos += 4
					absMem = (sib>>3)&7 == 4 && rex&2 == 0
				}
			} else if rm == 5 && mod == 0 { // RIP-relative
				if pos+4 > limit {
					return scanInvalid
				}
				memDisp = int32(uint32(code[pos]) | uint32(code[pos+1])<<8 |
					uint32(code[pos+2])<<16 | uint32(code[pos+3])<<24)
				pos += 4
				ripRel = true
			}
			switch mod {
			case 1:
				if pos >= limit {
					return scanInvalid
				}
				pos++
			case 2:
				if pos+4 > limit {
					return scanInvalid
				}
				pos += 4
			}
		}
		if se.fl&sGroup != 0 {
			form := 0
			if !hasMem {
				form = 1
			}
			m := &scanGroups[se.grp-1][form][(modrm>>3)&7]
			if !m.ok {
				return scanInvalid
			}
			op = m.op
			if m.flow != FlowSeq {
				flow = m.flow
			}
			if m.rare {
				flags |= flagRare
			}
			imK = m.imm
		}
	}

	// Immediate tail: always the length, and the value where Info needs
	// it (branch displacements, RET/ADD/SUB stack deltas).
	var immVal int64
	hasImm := false
	switch imK {
	case immNone:
	case imm8, rel8:
		if pos >= limit {
			return scanInvalid
		}
		immVal = int64(int8(code[pos]))
		pos++
		hasImm = imK == imm8
	case imm16:
		if pos+2 > limit {
			return scanInvalid
		}
		immVal = int64(int16(uint16(code[pos]) | uint16(code[pos+1])<<8))
		pos += 2
		hasImm = true
	case imm32, rel32:
		if pos+4 > limit {
			return scanInvalid
		}
		immVal = int64(int32(uint32(code[pos]) | uint32(code[pos+1])<<8 |
			uint32(code[pos+2])<<16 | uint32(code[pos+3])<<24))
		pos += 4
		hasImm = imK == imm32
	case immZ:
		n := 4
		if opsz {
			n = 2
		}
		if pos+n > limit {
			return scanInvalid
		}
		if n == 2 {
			immVal = int64(int16(uint16(code[pos]) | uint16(code[pos+1])<<8))
		} else {
			immVal = int64(int32(uint32(code[pos]) | uint32(code[pos+1])<<8 |
				uint32(code[pos+2])<<16 | uint32(code[pos+3])<<24))
		}
		pos += n
		hasImm = true
	case immV:
		n := 4
		switch {
		case rex&8 != 0:
			n = 8 // movabs; the value itself is never consulted
		case opsz:
			n = 2
		}
		if pos+n > limit {
			return scanInvalid
		}
		pos += n
		hasImm = true
	case imm16_8: // enter iw, ib
		if pos+3 > limit {
			return scanInvalid
		}
		pos += 3
		hasImm = true
	case immMoffs:
		n := 8
		if addrsz {
			n = 4
		}
		if pos+n > limit {
			return scanInvalid
		}
		pos += n
		hasImm = true
	}

	// Opcode-level quirks (mirrors applySpecial). sQuirk marks the few
	// opcodes that have one.
	if se.fl&sQuirk != 0 {
		switch opMap {
		case 0:
			switch {
			case opByte == 0x90:
				switch {
				case rep:
					op = PAUSE
				case rex&1 != 0:
					op = XCHG // xchg r8, rax
				default:
					op = NOP
				}
			case opByte >= 0xb8 && opByte <= 0xbf && rex&8 != 0:
				op = MOVABS
			case opByte == 0x63 && rex&8 == 0:
				flags |= flagRare // movsxd without REX.W
			}
		case 1:
			switch {
			case opByte == 0xb8 && !rep:
				flags |= flagRare // 0F B8 without F3 is JMPE
			case (opByte == 0xbc || opByte == 0xbd) && rep:
				op = POPCNT // tzcnt/lzcnt, grouped
			}
		}
	}
	if lock && !hasMem {
		flags |= flagRare // lock on a register form faults
	}

	// Assemble the record (mirrors PackLean on a full decode).
	length := pos
	var delta int32
	if seg {
		flags |= flagSeg
	}
	if hasImm {
		flags |= flagHasImm
	}
	if hasMem {
		flags |= flagHasMem
		if ripRel {
			flags |= flagMemRIP
		}
		if ripRel || absMem {
			flags |= flagMemResolved
			if ripRel {
				delta = packDelta(int64(length) + int64(memDisp))
			} else {
				delta = packDelta(int64(uint64(int64(memDisp)) - addr))
			}
		}
	}
	switch flow {
	case FlowJump, FlowCondJump, FlowCall:
		// Direct branches all carry rel8/rel32: the target is length +
		// displacement past addr (PackLean's wrapped Target - Addr).
		delta = packDelta(int64(length) + immVal)
	}
	// The stack deltas StackDelta reads from Delta (mirrors stackEffect;
	// rmIsRSP implies a register form, whose Delta is otherwise unused).
	switch op {
	case RET:
		delta = 8
		if hasImm {
			delta += int32(immVal)
		}
	case ADD:
		if rmIsRSP && hasImm {
			delta = int32(immVal)
		}
	case SUB:
		if rmIsRSP && hasImm {
			delta = -int32(immVal)
		}
	}

	*out = packInfo(op, length, flow, tok, flags, delta)
	return scanOK
}
