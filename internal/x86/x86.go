// Package x86 implements a table-driven x86-64 instruction decoder.
//
// The decoder is built for superset disassembly: it must assign a decode
// result to *every* byte offset of a binary, so it reports precise
// instruction lengths across most of the opcode space, distinguishes
// genuinely undefined encodings (which anchor the "definitely data"
// analyses), and extracts the properties the disassembly pipeline consumes:
// control flow, branch targets, memory operand shape (for jump-table
// discovery), approximate register effects, and stack-pointer deltas.
//
// It targets 64-bit mode only. Full ISA fidelity is a non-goal; coverage
// focuses on the integer, control-flow, string, x87 and SSE/SSE2 subsets
// that dominate compiled code, with correct lengths for VEX-encoded AVX and
// the 0F38/0F3A maps.
package x86

import "fmt"

// Reg identifies a general-purpose register, RIP, or none.
type Reg uint8

// General purpose registers in hardware encoding order (0-15), then RIP.
const (
	RegNone Reg = iota
	RAX
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	RIP
)

var regNames = [...]string{
	RegNone: "none",
	RAX:     "rax", RCX: "rcx", RDX: "rdx", RBX: "rbx",
	RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",
	RIP: "rip",
}

// String returns the canonical 64-bit name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Bit returns the bitmask bit for r in a register set, or 0 for
// RegNone/RIP (RIP is not tracked as a data register).
func (r Reg) Bit() uint32 {
	if r >= RAX && r <= R15 {
		return 1 << (r - RAX)
	}
	return 0
}

// gpr converts a 0-15 hardware register number to a Reg.
func gpr(n byte) Reg { return RAX + Reg(n&0xf) }

// Flow classifies the control-flow behaviour of an instruction.
type Flow uint8

// Control-flow kinds.
const (
	FlowSeq          Flow = iota // falls through to the next instruction
	FlowJump                     // unconditional direct jump (Target valid)
	FlowCondJump                 // conditional jump (Target valid, falls through)
	FlowIndirectJump             // jmp r/m
	FlowCall                     // direct call (Target valid, falls through)
	FlowIndirectCall             // call r/m
	FlowRet                      // ret / retf / iret
	FlowHalt                     // hlt, ud2, int3: execution does not continue
	FlowInvalid                  // not a valid instruction
)

var flowNames = [...]string{
	FlowSeq: "seq", FlowJump: "jump", FlowCondJump: "condjump",
	FlowIndirectJump: "ijump", FlowCall: "call", FlowIndirectCall: "icall",
	FlowRet: "ret", FlowHalt: "halt", FlowInvalid: "invalid",
}

func (f Flow) String() string {
	if int(f) < len(flowNames) {
		return flowNames[f]
	}
	return fmt.Sprintf("flow(%d)", uint8(f))
}

// FallthroughFlows and DirectFlows are flow classes as bit sets over
// Flow values, so a caller can test a class with a shift and a mask
// instead of a branch: FallthroughFlows>>f&1 is 1 when execution can
// continue at the next sequential instruction, DirectFlows>>f&1 when the
// instruction has a direct branch target.
const (
	FallthroughFlows uint16 = 1<<FlowSeq | 1<<FlowCondJump | 1<<FlowCall | 1<<FlowIndirectCall
	DirectFlows      uint16 = 1<<FlowJump | 1<<FlowCondJump | 1<<FlowCall
)

// HasFallthrough reports whether execution can continue at the next
// sequential instruction.
func (f Flow) HasFallthrough() bool { return FallthroughFlows>>f&1 != 0 }

// Cond is a condition code for Jcc/SETcc/CMOVcc (the low nibble of the
// opcode), or CondNone.
type Cond uint8

// CondNone marks an unconditional instruction.
const CondNone Cond = 0xff

var condNames = [16]string{
	"o", "no", "b", "ae", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func (c Cond) String() string {
	if c < 16 {
		return condNames[c]
	}
	return ""
}

// Mem describes a memory operand: [Base + Index*Scale + Disp].
// A RIP-relative operand has Base == RIP (Disp already includes the
// displacement only; use Inst.MemAddr for the resolved address).
type Mem struct {
	Base  Reg
	Index Reg
	Scale uint8 // 1, 2, 4 or 8; 0 when no index
	Disp  int64
}

// IsAbsolute reports whether the operand is a bare displacement with no
// registers ([disp32]), as used by absolute-addressed jump tables.
func (m Mem) IsAbsolute() bool { return m.Base == RegNone && m.Index == RegNone }

func (m Mem) String() string {
	s := "["
	sep := ""
	if m.Base != RegNone {
		s += m.Base.String()
		sep = "+"
	}
	if m.Index != RegNone {
		s += fmt.Sprintf("%s%s*%d", sep, m.Index, m.Scale)
		sep = "+"
	}
	switch {
	case m.Disp < 0:
		s += fmt.Sprintf("-0x%x", -m.Disp)
	case m.Disp > 0 || sep == "":
		s += fmt.Sprintf("%s0x%x", sep, m.Disp)
	}
	return s + "]"
}

// Prefix bit flags recorded on a decoded instruction.
const (
	PrefixLock  uint16 = 1 << iota // F0
	PrefixRepne                    // F2
	PrefixRep                      // F3
	PrefixOpsz                     // 66
	PrefixAddr                     // 67
	PrefixSeg                      // any segment override
	PrefixRex                      // any REX byte
	PrefixRexW                     // REX.W
	PrefixVex                      // C4/C5 VEX encoded
)

// Inst is one decoded instruction.
type Inst struct {
	Addr uint64 // virtual address of the first byte
	Len  int    // total encoded length in bytes (1..15)

	Op     Op     // mnemonic
	Opcode uint16 // raw opcode: map<<8 | opcode byte (map 0 = one-byte)
	Cond   Cond   // condition for Jcc/SETcc/CMOVcc, else CondNone
	Flow   Flow

	Prefix uint16 // Prefix* bits
	OpSize uint8  // operand size in bits: 8, 16, 32 or 64

	Target uint64 // direct branch target (Flow Jump/CondJump/Call)

	HasMem bool
	Mem    Mem

	HasImm bool
	Imm    int64
	// ImmLen is the encoded immediate width in bytes (0 when none). The
	// immediate is always the final ImmLen bytes of the instruction;
	// likewise a branch displacement occupies the final bytes, and a
	// memory displacement immediately precedes the immediate. Rewriters
	// rely on this layout.
	ImmLen uint8

	// Approximate data-flow summary over the 16 GPRs (bitmask, bit i =
	// register RAX+i). Memory operand base/index registers count as reads.
	Reads  uint32
	Writes uint32

	// Primary register operands for rendering (RegNone when the slot is
	// taken by the memory operand or absent). MemIsDst says which side of
	// a two-operand form the memory operand occupies.
	DstReg   Reg
	SrcReg   Reg
	MemIsDst bool

	// Vector operand numbers for SSE/MMX/x87 instructions: the ModRM.reg
	// field and the register-form ModRM.rm field (-1 when absent or when
	// the rm is a memory operand). Consumers pick the direction from
	// Opcode (e.g. 0F 10 loads into VecReg, 0F 11 stores from it).
	VecReg int8
	VecRM  int8

	// StackDelta is the statically-known change to RSP in bytes
	// (e.g. push: -8), or 0 when unknown/none.
	StackDelta int32

	// Rare marks privileged or highly unusual opcodes that essentially
	// never appear in compiled application code (in/out, hlt, far ops...).
	Rare bool
}

// MemAddr resolves the address of a RIP-relative or absolute memory operand.
// ok is false for operands that depend on a data register.
func (i *Inst) MemAddr() (addr uint64, ok bool) {
	if !i.HasMem {
		return 0, false
	}
	switch {
	case i.Mem.Base == RIP && i.Mem.Index == RegNone:
		return i.Addr + uint64(i.Len) + uint64(i.Mem.Disp), true
	case i.Mem.IsAbsolute():
		return uint64(i.Mem.Disp), true
	}
	return 0, false
}

// IsNop reports whether the instruction is a no-op of any encoding
// (0x90, 66 90, 0F 1F multi-byte NOPs, and prefetch hints).
func (i *Inst) IsNop() bool { return isNopOp(i.Op) }

func isNopOp(op Op) bool { return op == NOP || op == FNOP || op == PREFETCH }

// TokenID quantises the instruction for the statistical sequence models:
// opcode map (one-byte, 0F, 0F38, 0F3A) in the high bits and the opcode
// byte in the low 8, giving a stable token in [0, 4*256). Operand bytes
// are deliberately excluded — it is the opcode sequence whose statistics
// separate code from data. The superset graph precomputes this into its
// packed side-table so the scoring hot loop never touches the full Inst.
func (i *Inst) TokenID() uint16 {
	var m uint16
	switch i.Opcode >> 8 {
	case 0x0f:
		m = 1
	case 0x38:
		m = 2
	case 0x3a:
		m = 3
	}
	return m<<8 | i.Opcode&0xff
}
