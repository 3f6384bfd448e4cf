package x86

import (
	"testing"
	"unsafe"
)

// TestInfoIsEightBytes pins the side-table record's width: the superset
// keeps one record per section byte, so a field that regrows it costs
// that much more memory on every request.
func TestInfoIsEightBytes(t *testing.T) {
	if n := unsafe.Sizeof(Info{}); n != 8 {
		t.Fatalf("unsafe.Sizeof(Info{}) = %d, want 8", n)
	}
}

// TestOpsFitRecordByte: the record stores Op in one byte, so every
// mnemonic must be below 256.
func TestOpsFitRecordByte(t *testing.T) {
	for op := range opNames {
		if op > 0xff {
			t.Errorf("Op %v = %d does not fit Info's op byte", op, op)
		}
	}
}

// TestStackDeltaTable holds the table-driven StackDelta to the op switch
// it replaced, for every op byte, with and without a memory operand, at
// deltas that include the redecode sentinel.
func TestStackDeltaTable(t *testing.T) {
	want := func(e Info) int32 {
		switch e.Op() {
		case PUSH, PUSHF, CALL:
			return -8
		case POP, POPF:
			return 8
		case RET:
			return e.Delta
		case ADD, SUB:
			if !e.HasMem() {
				return e.Delta
			}
		}
		return 0
	}
	for op := range 256 {
		for _, flags := range []uint16{0, flagHasMem, flagHasImm | flagRare} {
			for _, d := range []int32{0, 8, -24, 1 << 20, DeltaRedecode, 1<<31 - 1} {
				e := Info{Delta: d, op: uint8(op), lenFlow: 1, tokFlags: flags}
				if got := e.StackDelta(); got != want(e) {
					t.Fatalf("op %v flags %#x delta %d: StackDelta %d, want %d", Op(op), flags, d, got, want(e))
				}
			}
		}
	}
}

// checkAccessors asserts that every accessor of the record e reads the
// fact DecodeInto states for the instruction at buf[0] (address addr).
// The record keeps some facts only implicitly — validity in Len, IsNop
// in Op, the stack delta in Op and Delta — and each address as a
// self-relative Delta, or DeltaRedecode exactly when that delta does not
// fit int32 or equals the sentinel itself.
func checkAccessors(t *testing.T, e Info, buf []byte, addr uint64) {
	t.Helper()
	var inst Inst
	if DecodeInto(&inst, buf, addr) != nil {
		if e.Valid() || e != (Info{}) {
			t.Fatalf("% x: invalid decode but record %+v", buf, e)
		}
		return
	}
	memAddr, resolved := inst.MemAddr()
	if !e.Valid() || e.Len() != inst.Len || e.Flow() != inst.Flow || e.Op() != inst.Op ||
		e.Tok() != int(inst.TokenID()) || e.StackDelta() != inst.StackDelta {
		t.Fatalf("% x: record %+v reads len %d flow %v op %v tok %#x stack %d, decode %+v",
			buf, e, e.Len(), e.Flow(), e.Op(), e.Tok(), e.StackDelta(), inst)
	}
	if e.Rare() != inst.Rare || e.IsNop() != inst.IsNop() ||
		e.HasMem() != inst.HasMem || e.HasImm() != inst.HasImm ||
		e.SegPrefix() != (inst.Prefix&PrefixSeg != 0) ||
		e.MemBaseRIP() != (inst.HasMem && inst.Mem.Base == RIP) ||
		e.MemResolved() != resolved {
		t.Fatalf("% x: record %+v flags disagree with decode %+v", buf, e, inst)
	}
	var want uint64
	switch {
	case inst.Flow == FlowJump || inst.Flow == FlowCondJump || inst.Flow == FlowCall:
		want = inst.Target
	case resolved:
		want = memAddr
	default:
		return
	}
	d := int64(want - addr)
	if fits := d == int64(int32(d)) && d != DeltaRedecode; fits != (e.Delta != DeltaRedecode) {
		t.Fatalf("% x: Delta %d for true delta %d", buf, e.Delta, d)
	}
	if e.Delta != DeltaRedecode && addr+uint64(int64(e.Delta)) != want {
		t.Fatalf("% x: Delta %d resolves to %#x, decode says %#x", buf, e.Delta, addr+uint64(int64(e.Delta)), want)
	}
}
