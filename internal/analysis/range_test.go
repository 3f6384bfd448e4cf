package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
	"probedis/internal/x86"
)

// rangeTestGraphs yields generated graphs: the O2 profile and three
// adversarial synth profiles, plus raw byte soup (dense invalid decodes
// stress the viability fixpoint).
func rangeTestGraphs(t *testing.T) []*superset.Graph {
	t.Helper()
	var gs []*superset.Graph
	for _, cfg := range []synth.Config{
		{Seed: 41, Profile: synth.ProfileO2, NumFuncs: 12},
		{Seed: 42, Profile: synth.ProfileAdversarial, NumFuncs: 12},
		{Seed: 43, Profile: synth.ProfileAdvOverlap, NumFuncs: 8},
		{Seed: 44, Profile: synth.ProfileAdvObf, NumFuncs: 8},
	} {
		bin, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, superset.Build(bin.Code, bin.Base))
	}
	rng := rand.New(rand.NewSource(7))
	soup := make([]byte, 6000)
	rng.Read(soup)
	gs = append(gs, superset.Build(soup, 0x400000))
	return gs
}

// naiveViability is the viability definition run literally, as an
// independent reference for Viability's sweep and worklist: start from
// every offset with a valid decode and no escaping successor, then clear
// any offset with a non-viable forced successor, sweeping the whole
// section until a sweep clears nothing.
func naiveViability(g *superset.Graph) []bool {
	viable := make([]bool, g.Len())
	succs := make([][]int, g.Len())
	for off := range viable {
		succs[off], viable[off] = naiveSuccs(g, off)
	}
	for changed := true; changed; {
		changed = false
		for off := range viable {
			if !viable[off] {
				continue
			}
			for _, s := range succs[off] {
				if !viable[s] {
					viable[off] = false
					changed = true
					break
				}
			}
		}
	}
	return viable
}

// naiveSuccs derives the in-section forced successors of off from its
// full decode (InstAt's Flow, Len and Target) and the section's address
// tests, never from the packed record, so the differential also catches
// a flow or Delta packing error. ok is false when the decode is invalid
// or a successor escapes: a fallthrough past the section end not into an
// extern range, a direct target outside the section and every extern
// range, or any successor address past 2^64 or below 0.
func naiveSuccs(g *superset.Graph, off int) (succs []int, ok bool) {
	inst := g.InstAt(off)
	if inst.Flow == x86.FlowInvalid {
		return nil, false
	}
	if inst.Flow.HasFallthrough() {
		if next := off + inst.Len; next < g.Len() {
			succs = append(succs, next)
		} else if end := g.Base + uint64(g.Len()); end < g.Base || !g.ExternTarget(end) {
			return nil, false
		}
	}
	switch inst.Flow {
	case x86.FlowJump, x86.FlowCondJump, x86.FlowCall:
		d := int64(inst.Target - inst.Addr)
		switch {
		case (d >= 0) != (inst.Target >= inst.Addr):
			return nil, false // wrapped around the address space
		case g.Contains(inst.Target):
			succs = append(succs, int(inst.Target-g.Base))
		case !g.ExternTarget(inst.Target):
			return nil, false
		}
	}
	return succs, true
}

// viabilityCase is a crafted section for the viability tests: its bytes,
// whether viabilityGraph registers extern ranges around it, and offsets
// the fixpoint must leave non-viable (dead) and viable (live) with the
// section at viabilityBase, or ending at 2^64 when top is set. Offset 0
// holds an invalid byte (0x06) wherever a case needs poison.
type viabilityCase struct {
	name       string
	code       []byte
	ext, top   bool
	dead, live []int
}

// viabilityBase is where the crafted cases' expectations hold, unless
// they set top.
const viabilityBase = 0x1000

// retFill pads a crafted case with rets, so that the offsets of interest
// lie below superset's StraightLimit and the sweep decides them by its
// straight-line path.
func retFill(code ...byte) []byte {
	return append(code, bytes.Repeat([]byte{0xc3}, x86.MaxInstLen+1)...)
}

var viabilityCases = []viabilityCase{
	// jmp +3 (1 -> 6); ret filler; nop at 6 falling into a jmp back to
	// offset 0. The sweep leaves 6 and 7 viable; the worklist poisons 7
	// through its backward edge, 6 by looking back from 7, and the
	// forward jmp at 1 only by searching the branch edges into 6.
	{name: "forward pred of look-back poison",
		code: []byte{0x06, 0xeb, 0x03, 0xc3, 0xc3, 0xc3, 0x90, 0xeb, 0xf7},
		dead: []int{1, 6, 7}, live: []int{3, 4, 5}},
	{name: "same below the straight limit",
		code: retFill(0x06, 0xeb, 0x03, 0xc3, 0xc3, 0xc3, 0x90, 0xeb, 0xf7),
		dead: []int{1, 6, 7}, live: []int{3, 4, 5}},
	// jmp to its own end (1 -> 3), then a jmp back onto offset 0: the
	// branch records no edge, so only the look-back finds it.
	{name: "jmp to own end",
		code: retFill(0x06, 0xeb, 0x00, 0xeb, 0xfb),
		dead: []int{1, 3}},
	// je to its own end: both forced successors are offset 3.
	{name: "jcc with coinciding successors",
		code: retFill(0x06, 0x74, 0x00, 0xeb, 0xfb),
		dead: []int{1, 3}},
	// jmp $ beside the poison: its only successor is itself.
	{name: "jmp to itself",
		code: retFill(0x06, 0xeb, 0xfe),
		live: []int{1}},
	// call into the extern range below the section, then a nop falling
	// off the end into the extern range above it.
	{name: "extern target and end", ext: true,
		code: []byte{0xe8, 0xdb, 0xff, 0xff, 0xff, 0x90},
		live: []int{0, 5}},
	{name: "same without extern ranges",
		code: []byte{0xe8, 0xdb, 0xff, 0xff, 0xff, 0x90},
		dead: []int{0, 5}},
	// A nop falling off a section that ends at 2^64: its fallthrough
	// address wraps to 0, where the extern range above the section
	// starts, and escapes all the same.
	{name: "nop falling off 2^64", ext: true, top: true,
		code: []byte{0x90}, dead: []int{0}},
	// jmp rel32 0x7fffffff: 2 GiB on, where the delta does not fit the
	// packed record (x86.DeltaRedecode), into the far extern range.
	{name: "far jmp into an extern range", ext: true,
		code: retFill(0xe9, 0xff, 0xff, 0xff, 0x7f), live: []int{0}},
	{name: "far jmp without extern ranges",
		code: retFill(0xe9, 0xff, 0xff, 0xff, 0x7f), dead: []int{0}},
	// je 2 -> 7 around a call into the extern range below the section,
	// falling through to the ret at 7: the sweep's general path decides
	// the call between two straight-line decisions with in-section
	// targets.
	{name: "call into an extern range between in-section targets", ext: true,
		code: retFill(0x74, 0x05, 0xe8, 0xd9, 0xff, 0xff, 0xff, 0xc3),
		live: []int{0, 2}},
	{name: "same call without extern ranges",
		code: retFill(0x74, 0x05, 0xe8, 0xd9, 0xff, 0xff, 0xff, 0xc3),
		dead: []int{0, 2}, live: []int{7}},
}

// viabilityGraph builds code at base. With ext it registers extern
// ranges right below and right above the section, and one 2 GiB past its
// start, where a far rel32 branch whose delta does not fit the packed
// record lands. Each range is clipped at 2^64 but keeps its start modulo
// 2^64, so a successor address that wraps can meet one.
func viabilityGraph(code []byte, base uint64, ext bool) *superset.Graph {
	g := superset.Build(code, base)
	if ext {
		span := func(start, size uint64) superset.Range {
			if start+size < start {
				return superset.Range{Start: start, End: math.MaxUint64}
			}
			return superset.Range{Start: start, End: start + size}
		}
		below := min(base, 0x40)
		g.SetExtern([]superset.Range{
			span(base-below, below),
			span(base+uint64(len(code)), 0x40),
			span(base+1<<31, 0x100),
		})
	}
	return g
}

// viabilityBases returns the bases the differential builds code at:
// viabilityBase, the one that ends the section exactly at 2^64, one just
// above 0, so that successor addresses past 2^64 and below 0 reach the
// sweep, and one that wraps the section's second half past 2^64.
func viabilityBases(code []byte) []uint64 {
	return []uint64{viabilityBase, -uint64(len(code)), 1, -uint64(len(code) / 2)}
}

// TestViabilityMatchesNaive checks Viability against naiveViability on
// the range-test graphs, more byte soup and crafted edge cases, and
// checks the crafted cases' expected offsets.
func TestViabilityMatchesNaive(t *testing.T) {
	gs := rangeTestGraphs(t)
	for _, seed := range []int64{8, 9, 10} {
		soup := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(soup)
		gs = append(gs, superset.Build(soup, 0x400000))
	}
	// Backward jmp rel8 hops, each to the one before, ending on an
	// invalid byte (0x06) at offset 0, then a ret: the poison climbs every
	// hop against ascending order and must reach the last hop.
	chain := []byte{0x06}
	for i := 0; i < 200; i++ {
		chain = append(chain, 0xeb, 0xfc)
	}
	chain[2] = 0xfd // the first hop jumps back 3 bytes, onto offset 0
	chain = append(chain, 0xc3)
	if naiveViability(superset.Build(chain, 0x1000))[len(chain)-3] {
		t.Fatal("naiveViability left the jmp chain's last hop viable")
	}
	// jmp rel32 hops that zig-zag across the section, ret filler
	// elsewhere: hop i sits in 64-byte block 0, 15, 1, 14, ... on a first
	// pass at byte 8 of the block and again on a second pass at byte 40,
	// each jumping to the next, and the last jumps onto an invalid byte at
	// offset 0. Poison climbs the chain against the hop order, alternately
	// up and down the section, so it must reach offsets on both sides of
	// the one it pops.
	const zigBlocks = 16
	zig := bytes.Repeat([]byte{0xc3}, zigBlocks*64)
	zig[0] = 0x06
	var hops []int
	for _, slot := range []int{8, 40} {
		for i := 0; i < zigBlocks; i++ {
			b := i / 2
			if i%2 == 1 {
				b = zigBlocks - 1 - i/2
			}
			hops = append(hops, b*64+slot)
		}
	}
	for i, at := range hops {
		dst := 0
		if i+1 < len(hops) {
			dst = hops[i+1]
		}
		zig[at] = 0xe9
		binary.LittleEndian.PutUint32(zig[at+1:], uint32(int32(dst-(at+5))))
	}
	if naiveViability(superset.Build(zig, 0x1000))[hops[0]] {
		t.Fatal("naiveViability left the zig-zag chain's first hop viable")
	}
	for _, c := range viabilityCases {
		base := uint64(viabilityBase)
		if c.top {
			base = -uint64(len(c.code))
		}
		v := naiveViability(viabilityGraph(c.code, base, c.ext))
		for _, off := range c.dead {
			if v[off] {
				t.Errorf("%s: offset %d viable, want non-viable", c.name, off)
			}
		}
		for _, off := range c.live {
			if !v[off] {
				t.Errorf("%s: offset %d non-viable, want viable", c.name, off)
			}
		}
		for _, base := range viabilityBases(c.code) {
			for _, ext := range []bool{false, true} {
				checkViabilityMatchesNaive(t, viabilityGraph(c.code, base, ext),
					fmt.Sprintf("%s at %#x, extern %v", c.name, base, ext))
			}
		}
	}
	codes := [][]byte{
		{},     // empty section
		{0xc3}, // ret: viable
		{0x90}, // nop falling off the section end: not viable
		chain,
		zig,
	}
	for _, g := range gs {
		codes = append(codes, g.Code)
	}
	for ci, code := range codes {
		for _, base := range viabilityBases(code) {
			checkViabilityMatchesNaive(t, viabilityGraph(code, base, false),
				fmt.Sprintf("section %d at %#x", ci, base))
		}
	}
}

// checkViabilityMatchesNaive fails the test at the first offset where
// Viability and naiveViability disagree on g.
func checkViabilityMatchesNaive(t *testing.T, g *superset.Graph, name string) {
	t.Helper()
	want, got := naiveViability(g), Viability(g)
	for off := range want {
		if want[off] != got[off] {
			t.Fatalf("%s: viability diverges first at offset %d (want %v)", name, off, want[off])
		}
	}
}

// FuzzViabilityMatchesNaive extends the differential to fuzzed bytes at
// fuzzed section bases, with and without extern ranges around the
// section. The seeds put every crafted case at each of viabilityBases.
// Run with `go test -fuzz=FuzzViabilityMatchesNaive ./internal/analysis`.
func FuzzViabilityMatchesNaive(f *testing.F) {
	for _, c := range viabilityCases {
		for _, base := range viabilityBases(c.code) {
			f.Add(c.code, base, c.ext)
		}
	}
	f.Fuzz(func(t *testing.T, code []byte, base uint64, ext bool) {
		if len(code) > 4<<10 {
			return
		}
		checkViabilityMatchesNaive(t, viabilityGraph(code, base, ext), "fuzz")
	})
}
