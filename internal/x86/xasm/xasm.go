// Package xasm is a small x86-64 assembler used to generate evaluation
// binaries. It emits a subset of the ISA (the subset compilers emit for
// integer and scalar-SSE code), supports labels with rel32/abs64 fixups,
// and round-trips against the x86 decoder (see the property tests).
package xasm

import (
	"fmt"

	"probedis/internal/x86"
)

// Mem mirrors x86.Mem for operand construction.
type Mem = x86.Mem

// fixKind is a fixup relocation kind.
type fixKind uint8

const (
	fixRel32 fixKind = iota // 4-byte PC-relative, PC = end of field
	fixAbs64                // 8-byte absolute virtual address
	fixAbs32                // 4-byte absolute virtual address
)

const (
	fixDiff32 fixKind = iota + 100 // 4-byte label difference: label - label2
)

type fixup struct {
	at     int // offset of the field in buf
	kind   fixKind
	label  string
	label2 string // base label for fixDiff32
}

// Asm accumulates encoded instructions at a fixed base virtual address.
// The zero value is not usable; call New.
type Asm struct {
	base   uint64
	buf    []byte
	labels map[string]int
	fixups []fixup
}

// New returns an assembler whose first byte will live at base.
func New(base uint64) *Asm {
	return &Asm{base: base, labels: make(map[string]int)}
}

// Base returns the virtual address of the first byte.
func (a *Asm) Base() uint64 { return a.base }

// Addr returns the virtual address of the next byte to be emitted.
func (a *Asm) Addr() uint64 { return a.base + uint64(len(a.buf)) }

// Len returns the number of bytes emitted so far.
func (a *Asm) Len() int { return len(a.buf) }

// Label binds name to the current offset. Rebinding a name panics: the
// generator must use unique labels.
func (a *Asm) Label(name string) {
	if _, dup := a.labels[name]; dup {
		panic("xasm: duplicate label " + name)
	}
	a.labels[name] = len(a.buf)
}

// LabelAddr returns the bound virtual address of a label.
func (a *Asm) LabelAddr(name string) (uint64, bool) {
	off, ok := a.labels[name]
	return a.base + uint64(off), ok
}

// Bytes resolves all fixups and returns the encoded image.
func (a *Asm) Bytes() ([]byte, error) {
	for _, f := range a.fixups {
		off, ok := a.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("xasm: undefined label %q", f.label)
		}
		target := a.base + uint64(off)
		switch f.kind {
		case fixRel32:
			rel := int64(target) - int64(a.base+uint64(f.at)+4)
			if rel < -1<<31 || rel >= 1<<31 {
				return nil, fmt.Errorf("xasm: rel32 overflow to %q", f.label)
			}
			putU32(a.buf[f.at:], uint32(rel))
		case fixAbs64:
			putU64(a.buf[f.at:], target)
		case fixAbs32:
			if target >= 1<<32 {
				return nil, fmt.Errorf("xasm: abs32 overflow to %q", f.label)
			}
			putU32(a.buf[f.at:], uint32(target))
		case fixDiff32:
			off2, ok := a.labels[f.label2]
			if !ok {
				return nil, fmt.Errorf("xasm: undefined label %q", f.label2)
			}
			putU32(a.buf[f.at:], uint32(int32(off-off2)))
		}
	}
	return a.buf, nil
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

// Raw appends raw bytes (data, padding).
func (a *Asm) Raw(b ...byte) { a.buf = append(a.buf, b...) }

// U32 appends a little-endian 32-bit value.
func (a *Asm) U32(v uint32) {
	a.buf = append(a.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian 64-bit value.
func (a *Asm) U64(v uint64) {
	a.U32(uint32(v))
	a.U32(uint32(v >> 32))
}

// Quad appends an 8-byte absolute pointer to label (a jump-table entry).
func (a *Asm) Quad(label string) {
	a.fixups = append(a.fixups, fixup{at: len(a.buf), kind: fixAbs64, label: label})
	a.U64(0)
}

// LongDiff appends the 4-byte value (label - base): a PIC jump-table entry.
func (a *Asm) LongDiff(label, base string) {
	a.fixups = append(a.fixups, fixup{at: len(a.buf), kind: fixDiff32, label: label, label2: base})
	a.U32(0)
}

// --- low-level encoding -------------------------------------------------

func regN(r x86.Reg) byte {
	if r < x86.RAX || r > x86.R15 {
		panic("xasm: not a GPR: " + r.String())
	}
	return byte(r - x86.RAX)
}

// rexFor composes a REX byte; returns 0 when none needed.
func rexFor(w bool, reg, index, base byte) byte {
	var rex byte
	if w {
		rex |= 8
	}
	rex |= (reg >> 3) << 2
	rex |= (index >> 3) << 1
	rex |= base >> 3
	if rex != 0 {
		rex |= 0x40
	}
	return rex
}

// emitRR emits opcode with a register-direct ModRM (mod=11).
func (a *Asm) emitRR(w bool, opcode []byte, reg, rm byte) {
	if rex := rexFor(w, reg, 0, rm); rex != 0 {
		a.buf = append(a.buf, rex)
	}
	a.buf = append(a.buf, opcode...)
	a.buf = append(a.buf, 0xc0|(reg&7)<<3|rm&7)
}

// emitRM emits opcode with a memory ModRM/SIB for m, reg (or opcode
// extension) in the reg field.
func (a *Asm) emitRM(w bool, opcode []byte, reg byte, m Mem) {
	var idx, base byte
	hasIdx := m.Index != x86.RegNone
	if hasIdx {
		idx = regN(m.Index)
		if m.Index == x86.RSP {
			panic("xasm: rsp cannot be an index register")
		}
	}
	ripRel := m.Base == x86.RIP
	hasBase := m.Base != x86.RegNone && !ripRel
	if hasBase {
		base = regN(m.Base)
	}
	if rex := rexFor(w, reg, btoi(hasIdx)*idx, btoi(hasBase)*base); rex != 0 {
		a.buf = append(a.buf, rex)
	}
	a.buf = append(a.buf, opcode...)

	scaleBits := func() byte {
		switch m.Scale {
		case 0, 1:
			return 0
		case 2:
			return 1
		case 4:
			return 2
		case 8:
			return 3
		}
		panic("xasm: bad scale")
	}

	switch {
	case ripRel:
		if hasIdx {
			panic("xasm: rip-relative with index")
		}
		a.buf = append(a.buf, reg&7<<3|5)
		a.U32(uint32(int32(m.Disp)))
	case !hasBase:
		// [disp32] or [index*scale+disp32]: SIB with base=101, mod=00.
		sibIdx := byte(4)
		if hasIdx {
			sibIdx = idx & 7
		}
		a.buf = append(a.buf, reg&7<<3|4, scaleBits()<<6|sibIdx<<3|5)
		a.U32(uint32(int32(m.Disp)))
	default:
		needSIB := hasIdx || base&7 == 4
		var mod byte
		switch {
		case m.Disp == 0 && base&7 != 5: // rbp/r13 need an explicit disp
			mod = 0
		case m.Disp >= -128 && m.Disp <= 127:
			mod = 1
		default:
			mod = 2
		}
		rm := base & 7
		if needSIB {
			rm = 4
		}
		a.buf = append(a.buf, mod<<6|reg&7<<3|rm)
		if needSIB {
			sibIdx := byte(4)
			if hasIdx {
				sibIdx = idx & 7
			}
			a.buf = append(a.buf, scaleBits()<<6|sibIdx<<3|base&7)
		}
		switch mod {
		case 1:
			a.buf = append(a.buf, byte(int8(m.Disp)))
		case 2:
			a.U32(uint32(int32(m.Disp)))
		}
	}
}

func btoi(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// rel32To emits a 4-byte rel32 fixup to label.
func (a *Asm) rel32To(label string) {
	a.fixups = append(a.fixups, fixup{at: len(a.buf), kind: fixRel32, label: label})
	a.U32(0)
}
