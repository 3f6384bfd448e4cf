package x86

import "math"

// Info flag bits, stored above the token in Info.tokFlags. Each has an
// accessor method below that documents it.
const (
	flagRare uint16 = 1 << (tokBits + iota)
	flagSeg
	flagHasMem
	flagHasImm
	flagMemRIP
	flagMemResolved
)

// tokBits is the width of the statistical token (Inst.TokenID): opcode
// map in bits 8–9, opcode byte in bits 0–7.
const (
	tokBits = 10
	tokMask = 1<<tokBits - 1
)

// DeltaRedecode in Info.Delta says the direct-branch target or resolved
// memory address does not fit the self-relative int32 (a branch or
// RIP-relative operand only near the ±2 GiB edge; an absolute operand
// 2 GiB or more from the instruction, or exactly 2^31 below it): readers
// re-decode the instruction for the address.
const DeltaRedecode = math.MinInt32

// Info is the packed per-offset decode record the superset side-table
// stores: 8 bytes covering everything the hot per-offset scans
// (viability, statistical scoring, behaviour penalties, hint pattern
// prefilters, the corrector) read. It lives in this package — not in
// internal/superset, which aliases it — so the batch Scan kernel can
// emit records straight from the dispatch tables without ever
// materializing an Inst.
//
// An offset with no valid decode holds the zero record: Len 0, Flow
// FlowSeq, no flags. Nothing is stored that follows from the rest:
// validity is Len != 0, IsNop follows from Op, and StackDelta from Op
// plus, for the few ops whose delta depends on an immediate, Delta.
type Info struct {
	// Delta is a self-relative encoding of the direct-branch target
	// (direct-branch flows) or the resolved memory-operand address
	// (MemResolved): absolute address = section base + offset + Delta,
	// or DeltaRedecode when that does not fit. RET and the register
	// forms of ADD and SUB, which have neither, keep their stack delta
	// here instead (see StackDelta).
	Delta int32
	op    uint8
	// lenFlow holds the encoded length (1..15) in its low nibble and
	// the control-flow class in its high nibble.
	lenFlow uint8
	// tokFlags holds the statistical token in its low tokBits bits and
	// the flag* bits above.
	tokFlags uint16
}

// Valid reports whether the offset decodes to a valid instruction. All
// other accessors are meaningful only when it holds.
func (e Info) Valid() bool { return e.lenFlow&0xf != 0 }

// Len is the encoded instruction length in bytes (1..15, 0 if invalid).
func (e Info) Len() int { return int(e.lenFlow & 0xf) }

// Flow is the control-flow class.
func (e Info) Flow() Flow { return Flow(e.lenFlow >> 4) }

// Op is the mnemonic.
func (e Info) Op() Op { return Op(e.op) }

// Tok is the precomputed statistical token (Inst.TokenID).
func (e Info) Tok() int { return int(e.tokFlags & tokMask) }

// Rare reports a privileged/unusual opcode (Inst.Rare).
func (e Info) Rare() bool { return e.tokFlags&flagRare != 0 }

// SegPrefix reports a segment-override prefix.
func (e Info) SegPrefix() bool { return e.tokFlags&flagSeg != 0 }

// IsNop reports a NOP-family instruction (Inst.IsNop).
func (e Info) IsNop() bool { return isNopOp(e.Op()) }

// HasMem reports a memory operand.
func (e Info) HasMem() bool { return e.tokFlags&flagHasMem != 0 }

// HasImm reports an immediate operand.
func (e Info) HasImm() bool { return e.tokFlags&flagHasImm != 0 }

// MemBaseRIP reports a RIP-based memory operand.
func (e Info) MemBaseRIP() bool { return e.tokFlags&flagMemRIP != 0 }

// MemResolved reports a memory operand with a statically-known address
// (Inst.MemAddr returns ok), held in Delta.
func (e Info) MemResolved() bool { return e.tokFlags&flagMemResolved != 0 }

// StackDelta is the statically-known RSP change in bytes, derived
// exactly as the decoder's stackEffect computes Inst.StackDelta: the
// fixed pushes and pops from Op, and RET's and the register-form
// ADD/SUB's immediate-dependent deltas from Delta. One probe of stackOps
// classifies the op, so the per-offset chain walks that sum it take no
// branch on the op.
func (e Info) StackDelta() int32 {
	k := stackOps[e.op]
	var m int32 // all ones when the delta lives in Delta
	if k.fromDelta == deltaAlways || k.fromDelta == deltaRegForm && !e.HasMem() {
		m = -1
	}
	return int32(k.fixed) + e.Delta&m
}

// Where an op's stack delta comes from, besides its fixed part.
const (
	deltaNever   = iota
	deltaAlways  // RET: Delta holds 8 plus its immediate
	deltaRegForm // ADD, SUB: Delta holds the RSP adjustment of the register form
)

// stackOps is StackDelta's table: each op's fixed delta and where the
// rest of it lives.
var stackOps = [256]struct {
	fixed     int8
	fromDelta uint8
}{
	PUSH:  {fixed: -8},
	PUSHF: {fixed: -8},
	CALL:  {fixed: -8},
	POP:   {fixed: 8},
	POPF:  {fixed: 8},
	RET:   {fromDelta: deltaAlways},
	ADD:   {fromDelta: deltaRegForm},
	SUB:   {fromDelta: deltaRegForm},
}

// packDelta stores the self-relative displacement d as Info.Delta.
func packDelta(d int64) int32 {
	if d == int64(int32(d)) {
		return int32(d)
	}
	return DeltaRedecode
}

// packInfo assembles a record from its decoded facts. flags holds the
// flag* bits; delta is the direct-branch target or memory-operand delta,
// or the stack delta of RET and register-form ADD/SUB.
func packInfo(op Op, length int, flow Flow, tok uint16, flags uint16, delta int32) Info {
	return Info{
		Delta:    delta,
		op:       uint8(op),
		lenFlow:  uint8(length) | uint8(flow)<<4,
		tokFlags: tok | flags,
	}
}

// PackLean collapses a decoded instruction into its 8-byte side-table
// record. It reads only length, flow, opcode, prefixes, immediates,
// memory operand, branch target and stack delta — none of the
// operand-rendering or register-effect fields. Scan produces
// bit-identical records without the intermediate Inst; the differential
// tests pin that equivalence.
func PackLean(inst *Inst) Info {
	var flags uint16
	var delta int32
	if inst.Rare {
		flags |= flagRare
	}
	if inst.Prefix&PrefixSeg != 0 {
		flags |= flagSeg
	}
	if inst.HasImm {
		flags |= flagHasImm
	}
	if inst.HasMem {
		flags |= flagHasMem
		if inst.Mem.Base == RIP {
			flags |= flagMemRIP
		}
		if addr, ok := inst.MemAddr(); ok {
			flags |= flagMemResolved
			delta = packDelta(int64(addr - inst.Addr))
		}
	}
	switch inst.Flow {
	case FlowJump, FlowCondJump, FlowCall:
		// Direct branches carry no memory operand, so Delta is free.
		delta = packDelta(int64(inst.Target - inst.Addr))
	}
	if inst.Op == RET || (inst.Op == ADD || inst.Op == SUB) && !inst.HasMem {
		delta = inst.StackDelta
	}
	return packInfo(inst.Op, inst.Len, inst.Flow, inst.TokenID(), flags, delta)
}
