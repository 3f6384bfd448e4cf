package analysis

import (
	"math"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/x86"
	"probedis/internal/x86/xasm"
)

// buildPool assembles: movsd-load of a constant pool via the given idiom,
// ret, then the pool (two doubles). Returns code and the pool offset.
func buildPool(t *testing.T, direct bool) ([]byte, int) {
	t.Helper()
	a := xasm.New(0x1000)
	if direct {
		a.MovsdLoadLabel(0, "pool")
	} else {
		a.LeaLabel(x86.RBX, "pool")
		a.MovsdLoad(0, xasm.Mem{Base: x86.RBX})
	}
	a.Ret()
	for a.Len()%8 != 0 {
		a.Raw(0)
	}
	a.Label("pool")
	a.U64(math.Float64bits(3.14159))
	a.U64(math.Float64bits(-2.5e3))
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	off, _ := a.LabelAddr("pool")
	return code, int(off - 0x1000)
}

func TestLiteralPoolDirect(t *testing.T) {
	for _, direct := range []bool{true, false} {
		code, pool := buildPool(t, direct)
		g := superset.Build(code, 0x1000)
		viable := Viability(g)
		hints := LiteralPoolHints(g, viable)
		found := false
		for _, h := range hints {
			if h.Kind != HintData || h.Src != "litpool" {
				continue
			}
			if h.Off <= pool && h.Off+h.Len >= pool+16 {
				found = true
			}
		}
		if !found {
			t.Errorf("direct=%v: pool [%d,%d) not proven; hints=%+v",
				direct, pool, pool+16, hints)
		}
	}
}

func TestLooksLikeDouble(t *testing.T) {
	cases := []struct {
		v    float64
		want bool
	}{
		{3.14159, true},
		{-2.5e3, true},
		{1e-9, true},
		{0, true},
		{1e200, false}, // out of the plausible-magnitude band
		{1e-200, false},
	}
	for _, c := range cases {
		var b [8]byte
		bits := math.Float64bits(c.v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		if got := looksLikeDouble(b[:]); got != c.want {
			t.Errorf("looksLikeDouble(%g) = %v, want %v", c.v, got, c.want)
		}
	}
	// Non-zero low bytes with zero exponent are not a denormal-zero.
	if looksLikeDouble([]byte{1, 2, 3, 4, 5, 6, 0, 0}) {
		t.Error("garbage with zero exponent accepted")
	}
}

func TestDataPatternHints(t *testing.T) {
	a := xasm.New(0x2000)
	a.Ret()
	a.Raw([]byte("a longer error message here")...)
	a.Raw(0)
	for i := 0; i < 12; i++ {
		a.Raw(0xcc)
	}
	code, _ := a.Bytes()
	g := superset.Build(code, 0x2000)
	hints := DataPatternHints(g)
	var haveString, haveFill bool
	for _, h := range hints {
		switch h.Src {
		case "string":
			haveString = true
		case "fill":
			haveFill = true
		}
	}
	if !haveString || !haveFill {
		t.Errorf("string=%v fill=%v: %+v", haveString, haveFill, hints)
	}
}
