package x86

import "errors"

// Decoding errors. Superset disassembly treats both identically ("this
// offset does not start a valid instruction"), but they are distinguished
// for diagnostics.
var (
	ErrTruncated = errors.New("x86: truncated instruction")
	ErrInvalid   = errors.New("x86: invalid encoding")
)

// MaxInstLen is the architectural limit on instruction length.
const MaxInstLen = 15

// decodeState carries the cursor and prefix context through one decode.
type decodeState struct {
	code []byte
	addr uint64
	pos  int

	rex     byte
	hasRex  bool
	opsz    bool // 66
	addrsz  bool // 67
	lock    bool
	repne   bool
	rep     bool
	seg     bool
	vex     bool
	vexMap  byte // 1=0F 2=0F38 3=0F3A
	prefixN int
}

func (d *decodeState) peek() (byte, bool) {
	if d.pos >= len(d.code) || d.pos >= MaxInstLen {
		return 0, false
	}
	return d.code[d.pos], true
}

func (d *decodeState) next() (byte, error) {
	b, ok := d.peek()
	if !ok {
		if d.pos >= MaxInstLen {
			return 0, ErrInvalid
		}
		return 0, ErrTruncated
	}
	d.pos++
	return b, nil
}

func (d *decodeState) u16() (uint16, error) {
	lo, err := d.next()
	if err != nil {
		return 0, err
	}
	hi, err := d.next()
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

func (d *decodeState) u32() (uint32, error) {
	lo, err := d.u16()
	if err != nil {
		return 0, err
	}
	hi, err := d.u16()
	if err != nil {
		return 0, err
	}
	return uint32(lo) | uint32(hi)<<16, nil
}

func (d *decodeState) u64() (uint64, error) {
	lo, err := d.u32()
	if err != nil {
		return 0, err
	}
	hi, err := d.u32()
	if err != nil {
		return 0, err
	}
	return uint64(lo) | uint64(hi)<<32, nil
}

// Decode decodes the instruction starting at code[0], whose virtual address
// is addr. On success the returned Inst has Len set to the encoded length.
// It fails with ErrTruncated if code is too short and ErrInvalid for
// undefined encodings.
func Decode(code []byte, addr uint64) (inst Inst, err error) {
	err = DecodeInto(&inst, code, addr)
	return
}

// DecodeInto is Decode writing its result through inst instead of
// returning it by value. Inst is large enough (112 bytes on amd64) that
// the by-value return is measurable on bulk paths such as Scan's
// VEX/EVEX fallback.
func DecodeInto(inst *Inst, code []byte, addr uint64) error {
	d := decodeState{code: code, addr: addr}
	*inst = Inst{Addr: addr, Cond: CondNone, OpSize: 32}

	// Prefix loop. A REX byte must immediately precede the opcode; a legacy
	// prefix after REX cancels it.
	for {
		b, ok := d.peek()
		if !ok {
			if d.pos >= MaxInstLen {
				return ErrInvalid
			}
			return ErrTruncated
		}
		switch {
		case b == 0x66:
			d.opsz, d.hasRex = true, false
		case b == 0x67:
			d.addrsz, d.hasRex = true, false
		case b == 0xf0:
			d.lock, d.hasRex = true, false
		case b == 0xf2:
			d.repne, d.hasRex = true, false
		case b == 0xf3:
			d.rep, d.hasRex = true, false
		case b == 0x26 || b == 0x2e || b == 0x36 || b == 0x3e || b == 0x64 || b == 0x65:
			d.seg, d.hasRex = true, false
		case b >= 0x40 && b <= 0x4f:
			d.rex, d.hasRex = b, true
		default:
			goto prefixesDone
		}
		d.pos++
		d.prefixN++
		if d.prefixN > 14 {
			return ErrInvalid
		}
	}
prefixesDone:

	if d.lock {
		inst.Prefix |= PrefixLock
	}
	if d.repne {
		inst.Prefix |= PrefixRepne
	}
	if d.rep {
		inst.Prefix |= PrefixRep
	}
	if d.opsz {
		inst.Prefix |= PrefixOpsz
	}
	if d.addrsz {
		inst.Prefix |= PrefixAddr
	}
	if d.seg {
		inst.Prefix |= PrefixSeg
	}
	if d.hasRex {
		inst.Prefix |= PrefixRex
		if d.rex&8 != 0 {
			inst.Prefix |= PrefixRexW
		}
	}

	op, err := d.next()
	if err != nil {
		return err
	}

	var e entry
	switch {
	case op == 0x0f:
		op2, err := d.next()
		if err != nil {
			return err
		}
		if op2 == 0x38 || op2 == 0x3a {
			op3, err := d.next()
			if err != nil {
				return err
			}
			if op2 == 0x38 {
				e = entry{op: ESC38, fl: fModRM, args: aMRead}
				inst.Opcode = 0x3800 | uint16(op3)
			} else {
				e = entry{op: ESC3A, fl: fModRM, imm: imm8, args: aMRead}
				inst.Opcode = 0x3a00 | uint16(op3)
			}
		} else {
			e = twoByte[op2]
			inst.Opcode = 0x0f00 | uint16(op2)
		}
	case op == 0xc4 || op == 0xc5:
		return decodeVEX(&d, inst, op)
	case op == 0x62:
		return decodeEVEX(&d, inst)
	default:
		e = oneByte[op]
		inst.Opcode = uint16(op)
	}

	if e.fl&fInvalid != 0 || e.fl&(fPrefix|fEscape) != 0 {
		return ErrInvalid
	}
	return finish(&d, inst, e, op)
}

// finish completes decoding after the opcode map entry is known.
func finish(d *decodeState, inst *Inst, e entry, op byte) error {
	inst.Op = e.op
	inst.Flow = e.flow
	inst.Rare = e.fl&fRare != 0

	// Effective operand size.
	switch {
	case e.fl&fByte != 0:
		inst.OpSize = 8
	case d.hasRex && d.rex&8 != 0:
		inst.OpSize = 64
	case d.opsz:
		inst.OpSize = 16
	case e.fl&fDef64 != 0:
		inst.OpSize = 64
	default:
		inst.OpSize = 32
	}

	// Condition-coded families carry the condition in the low nibble.
	switch inst.Op {
	case JCC, SETCC, CMOVCC:
		inst.Cond = Cond(inst.Opcode & 0x0f)
	}

	// ModRM / SIB / displacement.
	var modrm byte
	var rmReg, regOp Reg // register forms (RegNone when memory / unused)
	hasModRM := e.fl&fModRM != 0
	if hasModRM {
		var err error
		modrm, err = d.next()
		if err != nil {
			return err
		}
		mod := modrm >> 6
		rm := modrm & 7
		reg := (modrm >> 3) & 7
		if d.hasRex {
			reg |= (d.rex & 4) << 1 // REX.R
		}
		regOp = gpr(reg)

		if mod == 3 {
			if e.fl&fMemOnly != 0 {
				return ErrInvalid
			}
			r := rm
			if d.hasRex {
				r |= (d.rex & 1) << 3 // REX.B
			}
			rmReg = gpr(r)
		} else {
			inst.HasMem = true
			mem := Mem{}
			if rm == 4 { // SIB
				sib, err := d.next()
				if err != nil {
					return err
				}
				scale := sib >> 6
				idx := (sib >> 3) & 7
				base := sib & 7
				if d.hasRex {
					idx |= (d.rex & 2) << 2 // REX.X
					base |= (d.rex & 1) << 3
				}
				if idx != 4 { // index=RSP means no index
					mem.Index = gpr(idx)
					mem.Scale = 1 << scale
				}
				if base&7 == 5 && mod == 0 {
					// No base, disp32 follows.
					v, err := d.u32()
					if err != nil {
						return err
					}
					mem.Disp = int64(int32(v))
				} else {
					mem.Base = gpr(base)
				}
			} else if rm == 5 && mod == 0 {
				// RIP-relative.
				v, err := d.u32()
				if err != nil {
					return err
				}
				mem.Base = RIP
				mem.Disp = int64(int32(v))
			} else {
				r := rm
				if d.hasRex {
					r |= (d.rex & 1) << 3
				}
				mem.Base = gpr(r)
			}
			switch mod {
			case 1:
				v, err := d.next()
				if err != nil {
					return err
				}
				mem.Disp += int64(int8(v))
			case 2:
				v, err := d.u32()
				if err != nil {
					return err
				}
				mem.Disp += int64(int32(v))
			}
			inst.Mem = mem
		}
	}

	// Group opcodes: the real operation depends on ModRM.reg.
	if e.fl&fGroup != 0 {
		var err error
		e, err = resolveGroup(d, inst, e, op, modrm)
		if err != nil {
			return err
		}
		inst.Op = e.op
		if e.flow != FlowSeq {
			inst.Flow = e.flow
		}
		if e.fl&fRare != 0 {
			inst.Rare = true
		}
		if e.fl&fMemOnly != 0 && !inst.HasMem {
			return ErrInvalid
		}
		// Group members can force 64-bit defaults (push/call/jmp in grp5).
		if e.fl&fDef64 != 0 && inst.OpSize == 32 {
			inst.OpSize = 64
		}
	}

	// Immediate.
	if err := readImm(d, inst, e.imm); err != nil {
		return err
	}

	// Opcode-level special cases.
	applySpecial(d, inst, op)

	// Branch target for direct relative branches.
	inst.Len = d.pos
	if e.imm == rel8 || e.imm == rel32 {
		inst.Target = inst.Addr + uint64(inst.Len) + uint64(inst.Imm)
		inst.HasImm = false // the displacement is a target, not a value
	}

	opRegN := op & 7
	if d.hasRex {
		opRegN |= (d.rex & 1) << 3
	}
	regEffects(inst, e, gpr(opRegN), regOp, rmReg)
	operandInfo(inst, e, gpr(opRegN), regOp, rmReg)
	stackEffect(inst, rmReg)
	return nil
}

// vecNum converts a ModRM register slot to a vector register number.
func vecNum(r Reg) int8 {
	if r >= RAX && r <= R15 {
		return int8(r - RAX)
	}
	return -1
}

// isVecOp reports whether the operands live in vector/x87 registers, whose
// numbers the decoder does not name (GPR names would mislead).
func isVecOp(op Op) bool {
	switch op {
	case MOVUPS, MOVLPS, UNPCK, MOVHPS, MOVAPS, CVT, COMIS, MOVMSK, SSEAR,
		PACK, MOVD, MOVQ, MOVDQ, PCMP, PSHIFT, PARITH, SSEMISC, AVX,
		ESC38, ESC3A, X87:
		return true
	}
	return false
}

// operandInfo records the primary register operands for rendering.
func operandInfo(inst *Inst, e entry, opReg, regOp, rmReg Reg) {
	if isVecOp(inst.Op) {
		inst.MemIsDst = false
		inst.VecReg, inst.VecRM = vecNum(regOp), vecNum(rmReg)
		return
	}
	inst.VecReg, inst.VecRM = -1, -1
	switch e.args {
	case aMR:
		inst.DstReg, inst.SrcReg = rmReg, regOp
		inst.MemIsDst = inst.HasMem
	case aRM:
		inst.DstReg, inst.SrcReg = regOp, rmReg
	case aMI, aM, aMRead, aMWrite, aMC:
		inst.DstReg = rmReg
		inst.MemIsDst = inst.HasMem
		if e.args == aMC {
			inst.SrcReg = RCX
		}
	case aO, aOW, aOI:
		inst.DstReg = opReg
	case aAI:
		inst.DstReg = RAX
	case aXA:
		inst.DstReg, inst.SrcReg = RAX, opReg
	}
}

// readImm consumes the immediate bytes for kind k.
func readImm(d *decodeState, inst *Inst, k immKind) error {
	read := func(n int) (int64, error) {
		switch n {
		case 1:
			v, err := d.next()
			return int64(int8(v)), err
		case 2:
			v, err := d.u16()
			return int64(int16(v)), err
		case 4:
			v, err := d.u32()
			return int64(int32(v)), err
		default:
			v, err := d.u64()
			return int64(v), err
		}
	}
	var n int
	switch k {
	case immNone:
		return nil
	case imm8, rel8:
		n = 1
	case imm16:
		n = 2
	case imm32, rel32:
		n = 4
	case immZ:
		n = 4
		if d.opsz {
			n = 2
		}
	case immV:
		switch {
		case d.hasRex && d.rex&8 != 0:
			n = 8
		case d.opsz:
			n = 2
		default:
			n = 4
		}
	case imm16_8:
		v, err := read(2)
		if err != nil {
			return err
		}
		inst.Imm = v
		if _, err := read(1); err != nil {
			return err
		}
		inst.HasImm = true
		inst.ImmLen = 3
		return nil
	case immMoffs:
		n = 8
		if d.addrsz {
			n = 4
		}
	}
	v, err := read(n)
	if err != nil {
		return err
	}
	inst.Imm = v
	inst.HasImm = true
	inst.ImmLen = uint8(n)
	return nil
}

// Group dispatch tables.
var grp1Ops = [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
var grp2Ops = [8]Op{ROL, ROR, RCL, RCR, SHL, SHR, SHL, SAR}
var grp8Ops = [8]Op{INVALID, INVALID, INVALID, INVALID, BT, BTS, BTR, BTC}

// resolveGroup maps a group opcode + ModRM.reg to a concrete entry.
// The immediate kind of the incoming entry is preserved unless the group
// member overrides it (grp3 test).
func resolveGroup(d *decodeState, inst *Inst, e entry, op byte, modrm byte) (entry, error) {
	reg := (modrm >> 3) & 7
	switch op {
	case 0x80, 0x81, 0x83: // grp1
		o := grp1Ops[reg]
		fl := e.fl &^ fGroup
		args := argPattern(aMI)
		if o == CMP {
			fl |= fNoDstW
		} else {
			fl |= fRMW
		}
		return entry{op: o, fl: fl, imm: e.imm, args: args}, nil
	case 0x8f: // grp1A
		if reg != 0 {
			return e, ErrInvalid
		}
		return entry{op: POP, fl: (e.fl &^ fGroup) | fDef64, args: aMWrite}, nil
	case 0xc0, 0xc1, 0xd0, 0xd1, 0xd2, 0xd3: // grp2 shifts
		o := grp2Ops[reg]
		args := argPattern(aM)
		if op == 0xd2 || op == 0xd3 {
			args = aMC
		}
		return entry{op: o, fl: (e.fl &^ fGroup) | fRMW, imm: e.imm, args: args}, nil
	case 0xc6, 0xc7: // grp11 mov
		if reg != 0 {
			return e, ErrInvalid
		}
		return entry{op: MOV, fl: e.fl &^ fGroup, imm: e.imm, args: aMI}, nil
	case 0xf6, 0xf7: // grp3
		switch reg {
		case 0, 1:
			im := imm8
			if op == 0xf7 {
				im = immZ
			}
			return entry{op: TEST, fl: (e.fl &^ fGroup) | fNoDstW, imm: im, args: aMI}, nil
		case 2:
			return entry{op: NOT, fl: e.fl &^ fGroup, args: aM}, nil
		case 3:
			return entry{op: NEG, fl: e.fl &^ fGroup, args: aM}, nil
		case 4:
			return entry{op: MUL, fl: e.fl &^ fGroup, args: aMRead}, nil
		case 5:
			return entry{op: IMUL, fl: e.fl &^ fGroup, args: aMRead}, nil
		case 6:
			return entry{op: DIV, fl: e.fl &^ fGroup, args: aMRead}, nil
		default:
			return entry{op: IDIV, fl: e.fl &^ fGroup, args: aMRead}, nil
		}
	case 0xfe: // grp4
		switch reg {
		case 0:
			return entry{op: INC, fl: e.fl &^ fGroup, args: aM}, nil
		case 1:
			return entry{op: DEC, fl: e.fl &^ fGroup, args: aM}, nil
		}
		return e, ErrInvalid
	case 0xff: // grp5
		fl := e.fl &^ fGroup
		switch reg {
		case 0:
			return entry{op: INC, fl: fl, args: aM}, nil
		case 1:
			return entry{op: DEC, fl: fl, args: aM}, nil
		case 2:
			return entry{op: CALL, flow: FlowIndirectCall, fl: fl | fDef64, args: aMRead}, nil
		case 3:
			return entry{op: CALL, flow: FlowIndirectCall, fl: fl | fMemOnly | fRare, args: aMRead}, nil
		case 4:
			return entry{op: JMP, flow: FlowIndirectJump, fl: fl | fDef64, args: aMRead}, nil
		case 5:
			return entry{op: JMP, flow: FlowIndirectJump, fl: fl | fMemOnly | fRare, args: aMRead}, nil
		case 6:
			return entry{op: PUSH, fl: fl | fDef64, args: aMRead}, nil
		}
		return e, ErrInvalid
	}
	// Two-byte groups.
	switch inst.Opcode {
	case 0x0f00, 0x0f01: // grp6/grp7: system ops, all length-compatible
		return entry{op: SEGOP, fl: (e.fl &^ fGroup) | fRare, args: aMRead}, nil
	case 0x0f71, 0x0f72, 0x0f73: // grp12-14: vector shifts by immediate
		if inst.HasMem {
			return e, ErrInvalid
		}
		return entry{op: PSHIFT, fl: e.fl &^ fGroup, imm: e.imm, args: aNone}, nil
	case 0x0fae: // grp15: fences / fxsave family
		return entry{op: FENCE, fl: e.fl &^ fGroup, args: aMRead}, nil
	case 0x0fba: // grp8
		o := grp8Ops[reg]
		if o == INVALID {
			return e, ErrInvalid
		}
		fl := (e.fl &^ fGroup) | fRMW
		if o == BT {
			fl = (e.fl &^ fGroup) | fNoDstW
		}
		return entry{op: o, fl: fl, imm: e.imm, args: aMI}, nil
	case 0x0fc7: // grp9
		switch reg {
		case 1:
			if !inst.HasMem {
				return e, ErrInvalid
			}
			return entry{op: CMPXCHG8B, fl: e.fl &^ fGroup, args: aMRead}, nil
		case 6, 7: // rdrand/rdseed (reg form) or vmptrld etc (mem form)
			return entry{op: SEGOP, fl: (e.fl &^ fGroup) | fRare, args: aMWrite}, nil
		}
		return e, ErrInvalid
	}
	return e, ErrInvalid
}

// decodeVEX handles C4/C5-prefixed AVX instructions: exact lengths, grouped
// semantics (Op = AVX).
func decodeVEX(d *decodeState, inst *Inst, op byte) error {
	// A legacy prefix before VEX is not allowed (66/F2/F3 become part of
	// the VEX pp field); be lenient about segment overrides only.
	if d.opsz || d.rep || d.repne || d.lock || d.hasRex {
		return ErrInvalid
	}
	inst.Prefix |= PrefixVex
	var mapSel byte
	if op == 0xc4 {
		v1, err := d.next()
		if err != nil {
			return err
		}
		if _, err := d.next(); err != nil { // v2: W/vvvv/L/pp
			return err
		}
		mapSel = v1 & 0x1f
	} else {
		if _, err := d.next(); err != nil { // single VEX byte
			return err
		}
		mapSel = 1
	}
	opc, err := d.next()
	if err != nil {
		return err
	}

	e := entry{op: AVX, fl: fModRM, args: aMRead}
	switch mapSel {
	case 1:
		inst.Opcode = 0x0f00 | uint16(opc)
		if le := twoByte[opc]; le.fl&fInvalid == 0 {
			e.imm = le.imm
			if le.fl&fModRM == 0 {
				e.fl &^= fModRM
			}
			// VEX branch encodings do not exist; keep flow sequential.
		}
	case 2:
		inst.Opcode = 0x3800 | uint16(opc)
	case 3:
		inst.Opcode = 0x3a00 | uint16(opc)
		e.imm = imm8
	default:
		return ErrInvalid
	}
	inst.Op = AVX
	return finish(d, inst, e, opc)
}

// decodeEVEX handles 62-prefixed AVX-512 instructions. Only lengths and
// the opcode map are recovered (semantics are grouped under AVX); the
// compressed disp8 does not change encoded length, so the shared ModRM
// path applies. Reserved-bit checks keep the superset selective: random
// data rarely forms a well-formed EVEX prefix.
func decodeEVEX(d *decodeState, inst *Inst) error {
	if d.opsz || d.rep || d.repne || d.lock || d.hasRex {
		return ErrInvalid
	}
	inst.Prefix |= PrefixVex
	p0, err := d.next()
	if err != nil {
		return err
	}
	p1, err := d.next()
	if err != nil {
		return err
	}
	if _, err := d.next(); err != nil { // p2
		return err
	}
	if p0&0x08 != 0 || p1&0x04 == 0 {
		return ErrInvalid // reserved bits
	}
	mapSel := p0 & 0x07
	opc, err := d.next()
	if err != nil {
		return err
	}
	e := entry{op: AVX, fl: fModRM, args: aMRead}
	switch mapSel {
	case 1:
		inst.Opcode = 0x0f00 | uint16(opc)
		if le := twoByte[opc]; le.fl&fInvalid == 0 {
			e.imm = le.imm
		}
	case 2:
		inst.Opcode = 0x3800 | uint16(opc)
	case 3:
		inst.Opcode = 0x3a00 | uint16(opc)
		e.imm = imm8
	default:
		return ErrInvalid
	}
	inst.Op = AVX
	return finish(d, inst, e, opc)
}

// applySpecial patches opcode-level quirks after the main decode.
func applySpecial(d *decodeState, inst *Inst, op byte) {
	switch {
	case inst.Opcode == 0x90 && !inst.HasMem:
		switch {
		case d.rep:
			inst.Op = PAUSE
		case d.hasRex && d.rex&1 != 0:
			inst.Op = XCHG // xchg r8, rax
		default:
			inst.Op = NOP
		}
	case inst.Opcode == 0xb8 && inst.OpSize == 64 || // movabs only via B8+r REX.W
		(inst.Opcode > 0xb8 && inst.Opcode <= 0xbf && inst.OpSize == 64):
		inst.Op = MOVABS
	case inst.Opcode == 0x63 && inst.OpSize != 64:
		// movsxd without REX.W is legal but never emitted; flag rare.
		inst.Rare = true
	case inst.Opcode == 0x0fb8 && !d.rep:
		// 0F B8 without F3 is JMPE (IA-64 transition): invalid on x86-64,
		// but keep it decodable as a rare op for superset purposes.
		inst.Rare = true
	case inst.Opcode == 0x0fbc && d.rep:
		inst.Op = POPCNT // tzcnt, grouped
	case inst.Opcode == 0x0fbd && d.rep:
		inst.Op = POPCNT // lzcnt, grouped
	}
	// LOCK is only architecturally valid on memory RMW forms; a LOCK on a
	// register form or non-writable op faults. Treat it as rare evidence.
	if d.lock && !inst.HasMem {
		inst.Rare = true
	}
}

// regEffects fills the approximate read/write register sets.
func regEffects(inst *Inst, e entry, opReg, regOp, rmReg Reg) {
	var reads, writes uint32

	if inst.HasMem {
		reads |= inst.Mem.Base.Bit() | inst.Mem.Index.Bit()
	}

	rmRead := func() { reads |= rmReg.Bit() }
	rmWrite := func() { writes |= rmReg.Bit() }

	switch e.args {
	case aMR:
		reads |= regOp.Bit()
		if e.fl&fNoDstW == 0 {
			rmWrite()
		}
		if e.fl&(fRMW|fNoDstW) != 0 {
			rmRead()
		}
		if inst.Op == XCHG || inst.Op == XADD || inst.Op == CMPXCHG {
			writes |= regOp.Bit()
		}
	case aRM:
		rmRead()
		writes |= regOp.Bit()
		if e.fl&fRMW != 0 {
			reads |= regOp.Bit()
		}
	case aMI:
		if e.fl&fNoDstW == 0 {
			rmWrite()
		}
		if e.fl&(fRMW|fNoDstW) != 0 {
			rmRead()
		}
	case aM:
		rmRead()
		rmWrite()
	case aMRead:
		rmRead()
	case aMWrite:
		rmWrite()
	case aO:
		reads |= opReg.Bit()
	case aOW:
		writes |= opReg.Bit()
		if inst.Op == BSWAP {
			reads |= opReg.Bit()
		}
	case aOI:
		writes |= opReg.Bit()
	case aAI:
		reads |= RAX.Bit()
		if e.fl&fNoDstW == 0 {
			writes |= RAX.Bit()
		}
	case aMC:
		rmRead()
		rmWrite()
		reads |= RCX.Bit()
	case aXA:
		reads |= RAX.Bit() | opReg.Bit()
		writes |= RAX.Bit() | opReg.Bit()
	}

	// Implicit operands.
	switch inst.Op {
	case MUL, IMUL:
		if e.args == aMRead { // one-operand form
			reads |= RAX.Bit()
			writes |= RAX.Bit() | RDX.Bit()
		}
	case DIV, IDIV:
		reads |= RAX.Bit() | RDX.Bit()
		writes |= RAX.Bit() | RDX.Bit()
	case CBW:
		reads |= RAX.Bit()
		writes |= RAX.Bit()
	case CWD:
		reads |= RAX.Bit()
		writes |= RDX.Bit()
	case PUSH, POP, PUSHF, POPF, CALL, RET, RETF, LEAVE, ENTER, IRET:
		reads |= RSP.Bit()
		writes |= RSP.Bit()
		if inst.Op == LEAVE {
			reads |= RBP.Bit()
			writes |= RBP.Bit()
		}
		if inst.Op == ENTER {
			reads |= RBP.Bit()
			writes |= RBP.Bit()
		}
	case MOVS:
		reads |= RSI.Bit() | RDI.Bit()
		writes |= RSI.Bit() | RDI.Bit()
	case CMPS:
		reads |= RSI.Bit() | RDI.Bit()
		writes |= RSI.Bit() | RDI.Bit()
	case STOS, SCAS:
		reads |= RDI.Bit() | RAX.Bit()
		writes |= RDI.Bit()
	case LODS:
		reads |= RSI.Bit()
		writes |= RSI.Bit() | RAX.Bit()
	case XLAT:
		reads |= RBX.Bit() | RAX.Bit()
		writes |= RAX.Bit()
	case CPUID:
		reads |= RAX.Bit() | RCX.Bit()
		writes |= RAX.Bit() | RBX.Bit() | RCX.Bit() | RDX.Bit()
	case RDTSC, RDTSCP, RDPMC, RDMSR:
		writes |= RAX.Bit() | RDX.Bit()
	case SYSCALL:
		reads |= RAX.Bit() | RDI.Bit() | RSI.Bit() | RDX.Bit()
		writes |= RAX.Bit() | RCX.Bit() | R11.Bit()
	case LOOP, LOOPE, LOOPNE:
		reads |= RCX.Bit()
		writes |= RCX.Bit()
	case JRCXZ:
		reads |= RCX.Bit()
	case IN:
		writes |= RAX.Bit()
		if !inst.HasImm {
			reads |= RDX.Bit()
		}
	case OUT:
		reads |= RAX.Bit()
		if !inst.HasImm {
			reads |= RDX.Bit()
		}
	case SHLD, SHRD:
		if !inst.HasImm {
			reads |= RCX.Bit()
		}
	}
	if inst.Prefix&(PrefixRep|PrefixRepne) != 0 {
		switch inst.Op {
		case MOVS, CMPS, STOS, LODS, SCAS, INS, OUTS:
			reads |= RCX.Bit()
			writes |= RCX.Bit()
		}
	}

	inst.Reads = reads
	inst.Writes = writes
}

// stackEffect fills StackDelta for instructions with a statically-known
// effect on RSP.
func stackEffect(inst *Inst, rmReg Reg) {
	switch inst.Op {
	case PUSH, PUSHF:
		inst.StackDelta = -8
	case POP, POPF:
		inst.StackDelta = 8
	case CALL:
		inst.StackDelta = -8
	case RET:
		inst.StackDelta = 8
		if inst.HasImm {
			inst.StackDelta += int32(inst.Imm)
		}
	case ADD:
		if rmReg == RSP && inst.HasImm {
			inst.StackDelta = int32(inst.Imm)
		}
	case SUB:
		if rmReg == RSP && inst.HasImm {
			inst.StackDelta = -int32(inst.Imm)
		}
	}
}
