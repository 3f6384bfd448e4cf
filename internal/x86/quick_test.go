package x86

import (
	"testing"
	"testing/quick"
)

// TestQuickDecodeBounds: for arbitrary byte soup, a successful decode has
// a length in [1, MaxInstLen] that fits the input, and address fields are
// consistent.
func TestQuickDecodeBounds(t *testing.T) {
	f := func(code []byte, addr uint64) bool {
		if len(code) == 0 {
			return true
		}
		inst, err := Decode(code, addr)
		if err != nil {
			return true
		}
		if inst.Len < 1 || inst.Len > MaxInstLen || inst.Len > len(code) {
			return false
		}
		return inst.Addr == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAddressIndependence: the decode of the same bytes at two
// addresses differs only in address-dependent fields (Addr, Target, and
// nothing else).
func TestQuickAddressIndependence(t *testing.T) {
	f := func(code []byte, a1, a2 uint64) bool {
		if len(code) == 0 {
			return true
		}
		i1, e1 := Decode(code, a1)
		i2, e2 := Decode(code, a2)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true
		}
		// Normalise address-dependent fields.
		i2.Addr = i1.Addr
		i2.Target = i1.Target
		return i1 == i2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrefixPadding: prepending a 0x66 prefix to a valid instruction
// must either stay valid with length+1 or become invalid (never change
// decode length by anything else, never panic).
func TestQuickPrefixPadding(t *testing.T) {
	f := func(code []byte) bool {
		if len(code) == 0 || len(code) >= MaxInstLen {
			return true
		}
		base, err := Decode(code, 0)
		if err != nil {
			return true
		}
		padded := append([]byte{0x66}, code...)
		inst, err := Decode(padded, 0)
		if err != nil {
			return true // e.g. exceeded the 15-byte limit
		}
		return inst.Len == base.Len+1 ||
			// The prefix can change an immediate size (iz: 4 -> 2 bytes,
			// iv: 4 -> 2, moffs unchanged), shrinking the total by 2.
			inst.Len == base.Len-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// isBranch reports whether the flow transfers control away from the
// sequential stream (including calls).
func isBranch(f Flow) bool {
	switch f {
	case FlowJump, FlowCondJump, FlowIndirectJump, FlowCall, FlowIndirectCall, FlowRet:
		return true
	}
	return false
}

// TestQuickFallthroughConsistency: Flow.HasFallthrough and isBranch
// partition sanely for every decodable input.
func TestQuickFallthroughConsistency(t *testing.T) {
	f := func(code []byte) bool {
		if len(code) == 0 {
			return true
		}
		inst, err := Decode(code, 0x1000)
		if err != nil {
			return true
		}
		switch inst.Flow {
		case FlowJump, FlowIndirectJump, FlowRet, FlowHalt:
			return !inst.Flow.HasFallthrough()
		case FlowSeq:
			return inst.Flow.HasFallthrough() && !isBranch(inst.Flow)
		case FlowCondJump, FlowCall, FlowIndirectCall:
			return inst.Flow.HasFallthrough() && isBranch(inst.Flow)
		case FlowInvalid:
			return false // successful decode must not be invalid
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRegisterBits: Reads/Writes only ever contain GPR bits (bits
// 0..15), whatever the input.
func TestQuickRegisterBits(t *testing.T) {
	f := func(code []byte) bool {
		if len(code) == 0 {
			return true
		}
		inst, err := Decode(code, 0)
		if err != nil {
			return true
		}
		const mask = uint32(1)<<16 - 1
		return inst.Reads&^mask == 0 && inst.Writes&^mask == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestFlowMasks pins FallthroughFlows and DirectFlows to the flow classes
// they stand for, over every value a record's 4-bit flow field can hold.
func TestFlowMasks(t *testing.T) {
	for f := Flow(0); f < 16; f++ {
		fall := f == FlowSeq || f == FlowCondJump || f == FlowCall || f == FlowIndirectCall
		direct := f == FlowJump || f == FlowCondJump || f == FlowCall
		if f.HasFallthrough() != fall || FallthroughFlows>>f&1 == 1 != fall {
			t.Errorf("%v: falls through %v, FallthroughFlows bit %d", f, fall, FallthroughFlows>>f&1)
		}
		if DirectFlows>>f&1 == 1 != direct {
			t.Errorf("%v: direct %v, DirectFlows bit %d", f, direct, DirectFlows>>f&1)
		}
	}
}
