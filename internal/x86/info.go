package x86

// Info flag bits (Info.Flags).
const (
	// FlagValid marks an offset that decodes to a valid instruction
	// fitting within the section. All other fields are meaningful only
	// when it is set.
	FlagValid uint16 = 1 << iota
	// FlagRare marks privileged or highly unusual opcodes (Inst.Rare).
	FlagRare
	// FlagSeg marks a segment-override prefix (PrefixSeg).
	FlagSeg
	// FlagNop marks NOP-family instructions (Inst.IsNop).
	FlagNop
	// FlagHasMem marks an instruction with a memory operand.
	FlagHasMem
	// FlagHasImm marks an instruction with an immediate operand.
	FlagHasImm
	// FlagMemRIP marks a memory operand with Base == RIP.
	FlagMemRIP
	// FlagMemResolved marks a memory operand whose address is statically
	// resolvable (Inst.MemAddr returns ok: RIP-relative or absolute).
	FlagMemResolved
	// FlagTargetDelta says Delta holds the direct-branch target as a
	// self-relative delta. Direct branches whose displacement is too wide
	// for int32 (possible only near the ±2 GiB edge) leave it clear and
	// fall back to lazy re-decode.
	FlagTargetDelta
	// FlagMemDelta says Delta holds the resolved memory-operand address
	// as a self-relative delta (set only with FlagMemResolved; absolute
	// operands far from the section fall back to lazy re-decode).
	FlagMemDelta
)

// Info is the packed per-offset decode record the superset side-table
// stores: 16 bytes covering everything the hot per-offset scans
// (viability, statistical scoring, behaviour penalties, hint pattern
// prefilters, the corrector) read. It lives in this package — not in
// internal/superset, which aliases it — so the batch Scan kernel can
// emit records straight from the dispatch tables without ever
// materializing an Inst.
type Info struct {
	// Delta is a self-relative encoding of the direct-branch target
	// (FlagTargetDelta) or the resolved memory-operand address
	// (FlagMemDelta): absolute address = section base + offset + Delta.
	Delta int32
	// StackDelta is the statically-known RSP change in bytes.
	StackDelta int32
	// Op is the mnemonic.
	Op Op
	// Tok is the precomputed statistical token (Inst.TokenID).
	Tok uint16
	// Flags holds the Flag* bits, including validity.
	Flags uint16
	// Len is the encoded instruction length in bytes (1..15).
	Len uint8
	// Flow is the control-flow class.
	Flow Flow
}

// Valid reports whether the offset decodes to a valid instruction.
func (e *Info) Valid() bool { return e.Flags&FlagValid != 0 }

// Rare reports a privileged/unusual opcode (Inst.Rare).
func (e *Info) Rare() bool { return e.Flags&FlagRare != 0 }

// SegPrefix reports a segment-override prefix.
func (e *Info) SegPrefix() bool { return e.Flags&FlagSeg != 0 }

// IsNop reports a NOP-family instruction.
func (e *Info) IsNop() bool { return e.Flags&FlagNop != 0 }

// HasMem reports a memory operand.
func (e *Info) HasMem() bool { return e.Flags&FlagHasMem != 0 }

// HasImm reports an immediate operand.
func (e *Info) HasImm() bool { return e.Flags&FlagHasImm != 0 }

// MemBaseRIP reports a RIP-based memory operand.
func (e *Info) MemBaseRIP() bool { return e.Flags&FlagMemRIP != 0 }

// PackLean collapses a decoded instruction into its 16-byte side-table
// record. It reads only length, flow, opcode, prefixes, immediates,
// memory operand, branch target and stack delta — none of the
// operand-rendering or register-effect fields. Scan produces
// bit-identical records without the intermediate Inst; the differential
// tests pin that equivalence.
func PackLean(inst *Inst) Info {
	e := Info{
		StackDelta: inst.StackDelta,
		Op:         inst.Op,
		Tok:        inst.TokenID(),
		Flags:      FlagValid,
		Len:        uint8(inst.Len),
		Flow:       inst.Flow,
	}
	if inst.Rare {
		e.Flags |= FlagRare
	}
	if inst.Prefix&PrefixSeg != 0 {
		e.Flags |= FlagSeg
	}
	if inst.IsNop() {
		e.Flags |= FlagNop
	}
	if inst.HasImm {
		e.Flags |= FlagHasImm
	}
	if inst.HasMem {
		e.Flags |= FlagHasMem
		if inst.Mem.Base == RIP {
			e.Flags |= FlagMemRIP
		}
		if addr, ok := inst.MemAddr(); ok {
			e.Flags |= FlagMemResolved
			if d := int64(addr) - int64(inst.Addr); d == int64(int32(d)) {
				e.Flags |= FlagMemDelta
				e.Delta = int32(d)
			}
		}
	}
	switch inst.Flow {
	case FlowJump, FlowCondJump, FlowCall:
		// Direct branches carry no memory operand, so the Delta slot is
		// free; clear the mem role anyway so the slot is never ambiguous.
		e.Flags &^= FlagMemDelta
		e.Delta = 0
		if d := int64(inst.Target) - int64(inst.Addr); d == int64(int32(d)) {
			e.Flags |= FlagTargetDelta
			e.Delta = int32(d)
		}
	}
	return e
}
