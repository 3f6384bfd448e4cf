// Package rewrite is a static binary rewriter built on the metadata-free
// disassembly — the downstream application the paper's accuracy exists
// for. It relocates a classified text section to a new layout, optionally
// inserting a basic-block execution counter ("probe") at every recovered
// block, while fixing up:
//
//   - direct branch displacements (rel8 forms are widened to rel32, since
//     probes stretch distances; loop/loope/loopne/jrcxz, which have no
//     rel32 form, expand to flag-preserving multi-instruction sequences),
//   - RIP-relative memory operands (literal pools, PIC table bases, lea of
//     code addresses used by indirect calls),
//   - absolute-addressed jump-table operands and the tables themselves
//     (8-byte absolute entries are remapped; 4-byte PIC entries are
//     recomputed against the moved table).
//
// Correct rewriting is only possible if the classification is byte-exact:
// a missed jump table or a data byte treated as code produces a broken
// binary. Package-level validation therefore executes original and
// rewritten images in the emulator and requires identical behaviour.
package rewrite

import (
	"encoding/binary"
	"fmt"

	"probedis/internal/core"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// Options configures a rewrite.
type Options struct {
	// NewBase is the rewritten text base (0 = keep the original base).
	NewBase uint64
	// Probe inserts a 6-byte `inc dword [rip+counter]` at each recovered
	// basic-block start.
	Probe bool
	// CounterBase is the VA of the counter region (0 = one page past the
	// rewritten text, page aligned).
	CounterBase uint64
	// Entry is the original entry-point VA to map into Output.Entry
	// (0 = the section base).
	Entry uint64
}

// Output is the rewritten image.
type Output struct {
	Code  []byte
	Base  uint64
	Entry uint64
	// CounterBase/CounterLen describe the probe counter region (Probe).
	CounterBase uint64
	CounterLen  int
	Probes      int
	// InstMap maps old section offsets of instructions (and data-item
	// starts) to new offsets.
	InstMap map[int]int
}

// item kinds.
type itemKind uint8

const (
	itInst itemKind = iota
	itData
	itTableAbs // 8-byte absolute-entry jump table
	itTablePIC // 4-byte self-relative jump table
)

type item struct {
	kind    itemKind
	oldOff  int
	oldLen  int
	newOff  int
	newLen  int
	inst    x86.Inst
	probe   bool // probe precedes this instruction
	widened bool // rel8 branch widened to rel32
}

const probeLen = 6 // ff 05 rel32: inc dword [rip+counter]

// Rewrite relocates the classified section in det.
func Rewrite(det *core.Detail, opts Options) (*Output, error) {
	g := det.Graph
	res := det.Result
	n := g.Len()

	newBase := opts.NewBase
	if newBase == 0 {
		newBase = g.Base
	}

	// Table regions by start offset.
	type tbl struct{ size, entrySz int }
	tables := map[int]tbl{}
	for _, jt := range det.Tables {
		tables[jt.Table] = tbl{size: jt.Entries * jt.EntrySz, entrySz: jt.EntrySz}
	}

	// Pass 1: item list.
	var items []item
	for off := 0; off < n; {
		switch {
		case res.InstStart[off]:
			inst := g.InstAt(off) // committed instruction: materialize once
			it := item{kind: itInst, oldOff: off, oldLen: inst.Len, inst: inst,
				probe: opts.Probe && det.CFG.BlockAt(off) != nil}
			if err := classifyBranch(&it); err != nil {
				return nil, fmt.Errorf("rewrite: at +%#x: %w", off, err)
			}
			items = append(items, it)
			off += inst.Len
		case res.IsCode[off]:
			return nil, fmt.Errorf("rewrite: interior code byte without owner at +%#x", off)
		default:
			end := off
			for end < n && !res.IsCode[end] && !res.InstStart[end] {
				end++
			}
			// Split the data run around any known jump tables.
			for off < end {
				if t, ok := tables[off]; ok && off+t.size <= end {
					kind := itemKind(itTableAbs)
					if t.entrySz == 4 {
						kind = itTablePIC
					}
					items = append(items, item{kind: kind, oldOff: off, oldLen: t.size})
					off += t.size
					continue
				}
				// Raw data until the next table start (or run end).
				next := end
				for t := range tables {
					if t > off && t < next && t < end {
						next = t
					}
				}
				items = append(items, item{kind: itData, oldOff: off, oldLen: next - off})
				off = next
			}
		}
	}

	// Pass 2: layout.
	pos := 0
	probes := 0
	instMap := make(map[int]int, len(items))
	for i := range items {
		it := &items[i]
		if it.probe {
			probes++
			pos += probeLen
		}
		it.newOff = pos
		it.newLen = it.oldLen
		if it.widened {
			switch it.inst.Op {
			case x86.JCC:
				it.newLen = 6
			case x86.JMP:
				it.newLen = 5
			case x86.JRCXZ:
				it.newLen = 9 // jrcxz +2; jmp +5; jmp rel32
			case x86.LOOP:
				it.newLen = 11 // lea rcx,[rcx-1]; jrcxz +5; jmp rel32
			case x86.LOOPE, x86.LOOPNE:
				it.newLen = 13 // lea rcx,[rcx-1]; jrcxz +7; jcc +5; jmp rel32
			}
		}
		// Map the instruction to its probe so branch targets execute it.
		start := it.newOff
		if it.probe {
			start -= probeLen
		}
		instMap[it.oldOff] = start
		pos += it.newLen
	}
	totalLen := pos

	counterBase := opts.CounterBase
	if opts.Probe && counterBase == 0 {
		end := newBase + uint64(totalLen)
		counterBase = (end + 0x1fff) &^ 0xfff
	}

	// mapOff maps an old section offset (instruction start or byte inside
	// a data item) to its new offset.
	mapOff := func(old int) (int, error) {
		if v, ok := instMap[old]; ok {
			return v, nil
		}
		// Binary-search the data item containing old.
		lo, hi := 0, len(items)
		for lo < hi {
			mid := (lo + hi) / 2
			if items[mid].oldOff+items[mid].oldLen <= old {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(items) && items[lo].kind != itInst &&
			old >= items[lo].oldOff && old < items[lo].oldOff+items[lo].oldLen {
			return items[lo].newOff + (old - items[lo].oldOff), nil
		}
		return 0, fmt.Errorf("rewrite: unmappable offset +%#x", old)
	}
	mapVA := func(oldVA uint64) (uint64, error) {
		if oldVA < g.Base || oldVA >= g.Base+uint64(n) {
			return oldVA, nil // out of section: unchanged (extern target)
		}
		no, err := mapOff(int(oldVA - g.Base))
		if err != nil {
			return 0, err
		}
		return newBase + uint64(no), nil
	}

	// Pass 3: emit.
	out := make([]byte, totalLen)
	probeIdx := 0
	for i := range items {
		it := &items[i]
		switch it.kind {
		case itInst:
			if it.probe {
				p := it.newOff - probeLen
				ctr := counterBase + uint64(4*probeIdx)
				probeIdx++
				rel := int64(ctr) - int64(newBase+uint64(it.newOff))
				if int64(int32(rel)) != rel {
					return nil, fmt.Errorf("rewrite: probe counter out of rel32 range")
				}
				out[p] = 0xff
				out[p+1] = 0x05
				binary.LittleEndian.PutUint32(out[p+2:], uint32(rel))
			}
			if err := emitInst(g, out, it, newBase, mapVA); err != nil {
				return nil, err
			}
		case itData:
			copy(out[it.newOff:], g.Code[it.oldOff:it.oldOff+it.oldLen])
		case itTableAbs:
			for e := 0; e < it.oldLen; e += 8 {
				v := binary.LittleEndian.Uint64(g.Code[it.oldOff+e:])
				nv, err := mapVA(v)
				if err != nil {
					return nil, fmt.Errorf("rewrite: table entry at +%#x: %w", it.oldOff+e, err)
				}
				binary.LittleEndian.PutUint64(out[it.newOff+e:], nv)
			}
		case itTablePIC:
			for e := 0; e < it.oldLen; e += 4 {
				v := int64(int32(binary.LittleEndian.Uint32(g.Code[it.oldOff+e:])))
				oldTgt := it.oldOff + int(v)
				newTgt, err := mapOff(oldTgt)
				if err != nil {
					return nil, fmt.Errorf("rewrite: PIC entry at +%#x: %w", it.oldOff+e, err)
				}
				binary.LittleEndian.PutUint32(out[it.newOff+e:], uint32(int32(newTgt-it.newOff)))
			}
		}
	}

	entryOld := opts.Entry
	if entryOld == 0 {
		entryOld = g.Base
	}
	entry, err := mapVA(entryOld)
	if err != nil {
		return nil, fmt.Errorf("rewrite: entry: %w", err)
	}
	return &Output{
		Code:        out,
		Base:        newBase,
		Entry:       entry,
		CounterBase: counterBase,
		CounterLen:  4 * probes,
		Probes:      probes,
		InstMap:     instMap,
	}, nil
}

// classifyBranch marks rel8 direct branches for widening.
func classifyBranch(it *item) error {
	inst := &it.inst
	switch inst.Flow {
	case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
		if inst.ImmLen == 1 {
			switch inst.Op {
			case x86.JCC, x86.JMP:
				it.widened = true
			case x86.JRCXZ, x86.LOOP, x86.LOOPE, x86.LOOPNE:
				// No rel32 form exists; these expand to flag-preserving
				// multi-instruction sequences (lea does not touch flags).
				it.widened = true
			default:
				return fmt.Errorf("cannot widen %v rel8", inst.Op)
			}
		}
	}
	return nil
}

// emitInst copies and patches one instruction.
func emitInst(g *superset.Graph, out []byte, it *item, newBase uint64, mapVA func(uint64) (uint64, error)) error {
	inst := &it.inst
	dst := out[it.newOff:]
	newVA := newBase + uint64(it.newOff)
	end := newVA + uint64(it.newLen)

	// Direct branches.
	if inst.Flow == x86.FlowJump || inst.Flow == x86.FlowCondJump || inst.Flow == x86.FlowCall {
		tgt, err := mapVA(inst.Target)
		if err != nil {
			return fmt.Errorf("rewrite: branch at +%#x: %w", it.oldOff, err)
		}
		rel := int64(tgt) - int64(end)
		if int64(int32(rel)) != rel {
			return fmt.Errorf("rewrite: branch displacement overflow at +%#x", it.oldOff)
		}
		switch {
		case it.widened && inst.Op == x86.JCC:
			dst[0] = 0x0f
			dst[1] = 0x80 | byte(inst.Cond)
			binary.LittleEndian.PutUint32(dst[2:], uint32(rel))
		case it.widened && inst.Op == x86.JMP:
			dst[0] = 0xe9
			binary.LittleEndian.PutUint32(dst[1:], uint32(rel))
		case it.widened && inst.Op == x86.JRCXZ:
			// jrcxz +2; jmp +5; jmp rel32 <target>
			copy(dst, []byte{0xe3, 0x02, 0xeb, 0x05, 0xe9})
			binary.LittleEndian.PutUint32(dst[5:], uint32(rel))
		case it.widened && inst.Op == x86.LOOP:
			// lea rcx,[rcx-1]; jrcxz +5 (skip); jmp rel32 <target>
			copy(dst, []byte{0x48, 0x8d, 0x49, 0xff, 0xe3, 0x05, 0xe9})
			binary.LittleEndian.PutUint32(dst[7:], uint32(rel))
		case it.widened && (inst.Op == x86.LOOPE || inst.Op == x86.LOOPNE):
			// lea rcx,[rcx-1]; jrcxz +7; j(ne|e) +5; jmp rel32 <target>
			jcc := byte(0x75) // jne skips for loope (taken needs ZF=1)
			if inst.Op == x86.LOOPNE {
				jcc = 0x74 // je skips for loopne (taken needs ZF=0)
			}
			copy(dst, []byte{0x48, 0x8d, 0x49, 0xff, 0xe3, 0x07, jcc, 0x05, 0xe9})
			binary.LittleEndian.PutUint32(dst[9:], uint32(rel))
		default:
			copy(dst, g.Code[it.oldOff:it.oldOff+it.oldLen])
			binary.LittleEndian.PutUint32(dst[it.newLen-4:], uint32(rel))
		}
		return nil
	}

	copy(dst, g.Code[it.oldOff:it.oldOff+it.oldLen])

	// RIP-relative memory operands: the disp32 sits immediately before the
	// immediate bytes.
	if inst.HasMem && inst.Mem.Base == x86.RIP {
		oldTgt, _ := inst.MemAddr()
		tgt, err := mapVA(oldTgt)
		if err != nil {
			return fmt.Errorf("rewrite: rip-relative operand at +%#x: %w", it.oldOff, err)
		}
		rel := int64(tgt) - int64(end)
		if int64(int32(rel)) != rel {
			return fmt.Errorf("rewrite: rip-relative overflow at +%#x", it.oldOff)
		}
		pos := it.newLen - int(inst.ImmLen) - 4
		binary.LittleEndian.PutUint32(dst[pos:], uint32(rel))
		return nil
	}

	// Absolute-addressed memory operands pointing into the section
	// (jmp [table + idx*8] and friends): patch the disp32.
	if inst.HasMem && inst.Mem.Base == x86.RegNone {
		oldTgt := uint64(inst.Mem.Disp)
		if g.Contains(oldTgt) {
			tgt, err := mapVA(oldTgt)
			if err != nil {
				return fmt.Errorf("rewrite: absolute operand at +%#x: %w", it.oldOff, err)
			}
			if tgt>>32 != 0 {
				return fmt.Errorf("rewrite: absolute operand exceeds 32 bits at +%#x", it.oldOff)
			}
			pos := it.newLen - int(inst.ImmLen) - 4
			binary.LittleEndian.PutUint32(dst[pos:], uint32(tgt))
		}
	}
	return nil
}
