package analysis

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
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
// every valid offset, then clear any offset with an impossible or
// non-viable forced successor, sweeping the whole section until a sweep
// clears nothing.
func naiveViability(g *superset.Graph) []bool {
	viable := make([]bool, g.Len())
	for off := range viable {
		viable[off] = g.Valid(off)
	}
	var succs []int
	for changed := true; changed; {
		changed = false
		for off := range viable {
			if !viable[off] {
				continue
			}
			succs = g.ForcedSuccs(succs[:0], off)
			for _, s := range succs {
				if s < 0 || !viable[s] {
					viable[off] = false
					changed = true
					break
				}
			}
		}
	}
	return viable
}

// viabilityCase is a crafted section for the viability tests: its bytes,
// whether viabilityGraph registers extern ranges around it, and offsets
// the fixpoint must leave non-viable (dead) and viable (live). Offset 0
// holds an invalid byte (0x06) wherever a case needs poison.
type viabilityCase struct {
	name       string
	code       []byte
	ext        bool
	dead, live []int
}

var viabilityCases = []viabilityCase{
	// jmp +3 (1 -> 6); ret filler; nop at 6 falling into a jmp back to
	// offset 0. The sweep leaves 6 and 7 viable; the worklist poisons 7
	// through its backward edge, 6 by looking back from 7, and the
	// forward jmp at 1 only by searching the branch edges into 6.
	{name: "forward pred of look-back poison",
		code: []byte{0x06, 0xeb, 0x03, 0xc3, 0xc3, 0xc3, 0x90, 0xeb, 0xf7},
		dead: []int{1, 6, 7}, live: []int{3, 4, 5}},
	// jmp to its own end (1 -> 3), then a jmp back onto offset 0: the
	// branch records no edge, so only the look-back finds it.
	{name: "jmp to own end",
		code: []byte{0x06, 0xeb, 0x00, 0xeb, 0xfb},
		dead: []int{1, 3}},
	// je to its own end: both forced successors are offset 3.
	{name: "jcc with coinciding successors",
		code: []byte{0x06, 0x74, 0x00, 0xeb, 0xfb},
		dead: []int{1, 3}},
	// jmp $ beside the poison: its only successor is itself.
	{name: "jmp to itself",
		code: []byte{0x06, 0xeb, 0xfe},
		live: []int{1}},
	// call into the extern range below the section, then a nop falling
	// off the end into the extern range above it.
	{name: "extern target and end", ext: true,
		code: []byte{0xe8, 0xdb, 0xff, 0xff, 0xff, 0x90},
		live: []int{0, 5}},
	{name: "same without extern ranges",
		code: []byte{0xe8, 0xdb, 0xff, 0xff, 0xff, 0x90},
		dead: []int{0, 5}},
}

// viabilityGraph builds code at 0x1000; with ext it registers 64-byte
// extern ranges right below and right above the section.
func viabilityGraph(code []byte, ext bool) *superset.Graph {
	const base = 0x1000
	g := superset.Build(code, base)
	if ext {
		end := base + uint64(len(code))
		g.SetExtern([]superset.Range{{Start: base - 0x40, End: base}, {Start: end, End: end + 0x40}})
	}
	return g
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
	for _, code := range [][]byte{
		{},     // empty section
		{0xc3}, // ret: viable
		{0x90}, // nop falling off the section end: not viable
		chain,
		zig,
	} {
		gs = append(gs, superset.Build(code, 0x1000))
	}
	for _, c := range viabilityCases {
		g := viabilityGraph(c.code, c.ext)
		v := naiveViability(g)
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
		checkViabilityMatchesNaive(t, g, c.name)
	}
	for gi, g := range gs {
		checkViabilityMatchesNaive(t, g, fmt.Sprintf("graph %d", gi))
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

// FuzzViabilityMatchesNaive extends the differential to fuzzed bytes,
// with and without extern ranges around the section. Run with
// `go test -fuzz=FuzzViabilityMatchesNaive ./internal/analysis`.
func FuzzViabilityMatchesNaive(f *testing.F) {
	for _, c := range viabilityCases {
		f.Add(c.code, c.ext)
	}
	f.Fuzz(func(t *testing.T, code []byte, ext bool) {
		if len(code) > 4<<10 {
			return
		}
		checkViabilityMatchesNaive(t, viabilityGraph(code, ext), "fuzz")
	})
}
