package analysis

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
)

func genBin(t testing.TB, seed int64, p synth.Profile, n int) (*synth.Binary, *superset.Graph) {
	t.Helper()
	b, err := synth.Generate(synth.Config{Seed: seed, Profile: p, NumFuncs: n})
	if err != nil {
		t.Fatal(err)
	}
	return b, superset.Build(b.Code, b.Base)
}

// TestViabilityCoversTruth: every ground-truth instruction must be viable
// (viability is a sound filter — it may keep junk but must never reject
// real code).
func TestViabilityCoversTruth(t *testing.T) {
	for _, p := range synth.DefaultProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, g := genBin(t, 31, p, 40)
			viable := Viability(g)
			for off, s := range b.Truth.InstStart {
				if s && !viable[off] {
					t.Fatalf("true instruction at +%#x marked non-viable (op %v)",
						off, g.Info[off].Op())
				}
			}
			// And it must prune something (data offsets that derail).
			pruned := 0
			for off, v := range viable {
				if !v && b.Truth.Classes[off].IsData() {
					pruned++
				}
			}
			if pruned == 0 {
				t.Error("viability pruned no data offsets")
			}
		})
	}
}

func TestViabilityPoisoning(t *testing.T) {
	// nop; nop; <invalid 0x06>: offsets 0 and 1 fall through into the
	// invalid byte and must be non-viable.
	g := superset.Build([]byte{0x90, 0x90, 0x06}, 0x1000)
	v := Viability(g)
	if v[0] || v[1] || v[2] {
		t.Errorf("viability = %v, want all false", v)
	}
	// ret before the invalid byte stops the poison.
	g = superset.Build([]byte{0x90, 0xc3, 0x06}, 0x1000)
	v = Viability(g)
	if !v[0] || !v[1] || v[2] {
		t.Errorf("viability = %v, want [true true false]", v)
	}
}

func TestViabilityLoopIsViable(t *testing.T) {
	// A self-loop (jmp -2) must remain viable (greatest fixpoint).
	g := superset.Build([]byte{0xeb, 0xfe}, 0x1000)
	if v := Viability(g); !v[0] {
		t.Error("self-loop marked non-viable")
	}
}

// TestViabilityRetainsOnlyMask pins Viability's retained heap: once the
// call returns and a GC runs, only the one-byte-per-offset mask stays
// live. The edge list is transient and must not outlive the call.
func TestViabilityRetainsOnlyMask(t *testing.T) {
	code := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(code)
	g := superset.Build(code, 0x400000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	viable := Viability(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(viable)
	runtime.KeepAlive(g)
	perByte := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(code))
	t.Logf("retained %.1f B per section byte", perByte)
	if perByte >= 2 {
		t.Fatalf("Viability retains %.1f B per section byte after GC, want < 2 (the mask alone is 1)", perByte)
	}
}

// TestJumpTablePrecision: every discovered table must lie within true
// jump-table bytes, and every reported target must be a true instruction.
func TestJumpTablePrecision(t *testing.T) {
	b, g := genBin(t, 33, synth.ProfileComplex, 60)
	viable := Viability(g)
	tables := FindJumpTables(g, viable)
	if len(tables) == 0 {
		t.Fatal("no jump tables found in complex corpus")
	}
	for _, jt := range tables {
		for i := jt.Table; i < jt.Table+jt.Entries*jt.EntrySz; i++ {
			if b.Truth.Classes[i] != synth.ClassJumpTable {
				t.Fatalf("table at +%#x: byte +%#x is %v, not jumptable",
					jt.Table, i, b.Truth.Classes[i])
			}
		}
		for _, tgt := range jt.Targets {
			if !b.Truth.InstStart[tgt] {
				t.Fatalf("table at +%#x: target +%#x is not an instruction", jt.Table, tgt)
			}
		}
	}
}

// TestJumpTableRecall: most true jump-table bytes should be covered.
func TestJumpTableRecall(t *testing.T) {
	b, g := genBin(t, 34, synth.ProfileComplex, 80)
	viable := Viability(g)
	covered := make([]bool, g.Len())
	for _, jt := range FindJumpTables(g, viable) {
		for i := jt.Table; i < jt.Table+jt.Entries*jt.EntrySz; i++ {
			covered[i] = true
		}
	}
	var tot, got int
	for i, c := range b.Truth.Classes {
		if c == synth.ClassJumpTable {
			tot++
			if covered[i] {
				got++
			}
		}
	}
	if tot == 0 {
		t.Fatal("corpus has no jump tables")
	}
	recall := float64(got) / float64(tot)
	t.Logf("jump-table byte recall: %d/%d = %.3f", got, tot, recall)
	if recall < 0.85 {
		t.Errorf("jump-table recall too low: %.3f", recall)
	}
}

// TestJumpTableTargetsFromEntries: a table's Targets are ascending and
// distinct, and are exactly the set of offsets its entries decode to —
// absolute pointers for 8-byte entries, PIC offsets relative to the
// table for 4-byte ones. A hand-built PIC table lists its targets out of
// order and twice; the generated corpus covers both entry sizes.
func TestJumpTableTargetsFromEntries(t *testing.T) {
	code := []byte{
		0x48, 0x8d, 0x05, 0x0d, 0x00, 0x00, 0x00, // 0: lea rax, [rip+0xd] (table at 20)
		0x48, 0x63, 0x14, 0x88, // 7: movsxd rdx, dword [rax+rcx*4]
		0x48, 0x01, 0xc2, // 11: add rdx, rax
		0xff, 0xe2, // 14: jmp rdx
		0xc3, 0xc3, 0xc3, // 16, 17, 18: ret
		0xcc,                   // 19: int3
		0xfe, 0xff, 0xff, 0xff, // 20: -> 18
		0xfc, 0xff, 0xff, 0xff, // -> 16
		0xfe, 0xff, 0xff, 0xff, // -> 18
		0xfd, 0xff, 0xff, 0xff, // -> 17
	}
	g := superset.Build(code, 0x1000)
	tables := FindJumpTables(g, Viability(g))
	checkTableTargets(t, g, tables)
	found := false
	for _, jt := range tables {
		if jt.Table == 20 {
			found = true
			if jt.Entries != 4 || !slices.Equal(jt.Targets, []int{16, 17, 18}) {
				t.Errorf("hand-built table: %d entries, targets %v; want 4 and [16 17 18]", jt.Entries, jt.Targets)
			}
		}
	}
	if !found {
		t.Fatalf("hand-built table not found: %+v", tables)
	}

	_, g = genBin(t, 34, synth.ProfileComplex, 80)
	tables = FindJumpTables(g, Viability(g))
	checkTableTargets(t, g, tables)
	sizes := map[int]int{}
	for _, jt := range tables {
		sizes[jt.EntrySz]++
	}
	if sizes[4] == 0 || sizes[8] == 0 {
		t.Fatalf("want tables of both entry sizes, got %v", sizes)
	}
}

func checkTableTargets(t *testing.T, g *superset.Graph, tables []JumpTable) {
	t.Helper()
	for _, jt := range tables {
		want := map[int]bool{}
		for i := 0; i < jt.Entries; i++ {
			at := jt.Table + i*jt.EntrySz
			if jt.EntrySz == 8 {
				want[g.OffsetOf(binary.LittleEndian.Uint64(g.Code[at:]))] = true
			} else {
				want[jt.Table+int(int32(binary.LittleEndian.Uint32(g.Code[at:])))] = true
			}
		}
		for i, tgt := range jt.Targets {
			if i > 0 && tgt <= jt.Targets[i-1] {
				t.Fatalf("table at +%#x: targets %v not ascending and distinct", jt.Table, jt.Targets)
			}
			if !want[tgt] {
				t.Fatalf("table at +%#x: target +%#x is no entry's target", jt.Table, tgt)
			}
		}
		if len(jt.Targets) != len(want) {
			t.Fatalf("table at +%#x: %d targets, entries decode to %d", jt.Table, len(jt.Targets), len(want))
		}
	}
}

// TestFindJumpTablesAllocs: discovery allocates one Targets slice per
// accepted table plus the output's growth, never per candidate or per
// entry.
func TestFindJumpTablesAllocs(t *testing.T) {
	_, g := genBin(t, 34, synth.ProfileComplex, 80)
	viable := Viability(g)
	var tables []JumpTable
	allocs := testing.AllocsPerRun(5, func() { tables = FindJumpTables(g, viable) })
	t.Logf("%d tables: %.0f allocations", len(tables), allocs)
	if limit := float64(len(tables) + 16); allocs > limit {
		t.Errorf("FindJumpTables made %.0f allocations for %d tables, want at most %.0f", allocs, len(tables), limit)
	}
}

// TestCallTargetsAreFunctions: strong call-target hints must point at true
// instruction starts.
func TestCallTargetsAreFunctions(t *testing.T) {
	b, g := genBin(t, 35, synth.ProfileO2, 60)
	viable := Viability(g)
	hints := CallTargetHints(g, viable)
	if len(hints) == 0 {
		t.Fatal("no call-target hints")
	}
	strong, wrong := 0, 0
	for _, h := range hints {
		if h.Prio != PrioStrong {
			continue
		}
		strong++
		if !b.Truth.InstStart[h.Off] {
			wrong++
		}
	}
	if strong == 0 {
		t.Fatal("no multi-caller targets")
	}
	if float64(wrong)/float64(strong) > 0.02 {
		t.Errorf("%d/%d strong call targets are not instructions", wrong, strong)
	}
}

func TestPrologueHintsPrecision(t *testing.T) {
	b, g := genBin(t, 36, synth.ProfileO0, 60)
	viable := Viability(g)
	hints := PrologueHints(g, viable)
	if len(hints) == 0 {
		t.Fatal("no prologue hints in frame-pointer profile")
	}
	wrong := 0
	for _, h := range hints {
		if !b.Truth.InstStart[h.Off] {
			wrong++
		}
	}
	if frac := float64(wrong) / float64(len(hints)); frac > 0.10 {
		t.Errorf("prologue hint error rate %.3f (%d/%d)", frac, wrong, len(hints))
	}
}

func TestBehaviorPenalty(t *testing.T) {
	// Clean chain: push rbp; mov rbp,rsp; ret.
	clean := superset.Build([]byte{0x55, 0x48, 0x89, 0xe5, 0xc3}, 0)
	// Dirty chain: in al,dx; out dx,al; cli; ret. (hlt would end the
	// chain immediately — FlowHalt has no fallthrough.)
	dirty := superset.Build([]byte{0xec, 0xee, 0xfa, 0xc3}, 0)
	pc := BehaviorPenalty(clean, 0, 8)
	pd := BehaviorPenalty(dirty, 0, 8)
	if pc != 0 {
		t.Errorf("clean chain penalty = %v", pc)
	}
	if pd < 6 {
		t.Errorf("dirty chain penalty = %v, want >= 6", pd)
	}
	// Stack indiscipline: a run of pops.
	pops := superset.Build([]byte{0x58, 0x59, 0x5a, 0x5b, 0x5c, 0x5d, 0x5e, 0x5f,
		0x58, 0x59, 0x5a, 0xc3}, 0)
	if p := BehaviorPenalty(pops, 0, 12); p == 0 {
		t.Error("pop flood not penalised")
	}
}

func TestSortHints(t *testing.T) {
	hs := []Hint{
		{Kind: HintCode, Off: 5, Prio: PrioStat, Score: 1},
		{Kind: HintData, Off: 3, Prio: PrioProof, Score: 2},
		{Kind: HintCode, Off: 1, Prio: PrioProof, Score: 9},
		{Kind: HintCode, Off: 2, Prio: PrioStat, Score: 7},
	}
	SortHints(hs)
	if hs[0].Off != 1 || hs[1].Off != 3 || hs[2].Off != 2 || hs[3].Off != 5 {
		t.Errorf("order = %+v", hs)
	}
}

func TestEntryHint(t *testing.T) {
	g := superset.Build([]byte{0x90, 0xc3}, 0x1000)
	if h := EntryHint(g, 0); len(h) != 1 || h[0].Prio != PrioProof {
		t.Errorf("EntryHint = %v", h)
	}
	if h := EntryHint(g, -1); h != nil {
		t.Errorf("EntryHint(-1) = %v", h)
	}
	if h := EntryHint(g, 99); h != nil {
		t.Errorf("EntryHint(out of range) = %v", h)
	}
}

// TestSortHintsTotalOrder: hints tying on priority, score, offset and kind
// must still sort to one canonical sequence (source, then length, break
// the tie) no matter what order the — possibly concurrent — analyses
// emitted them in. sort.Slice is unstable, so anything short of a total
// key would let the commit order drift run-to-run.
func TestSortHintsTotalOrder(t *testing.T) {
	base := []Hint{
		{Kind: HintCode, Off: 8, Prio: PrioMedium, Score: 4, Src: "prologue"},
		{Kind: HintCode, Off: 8, Prio: PrioMedium, Score: 4, Src: "calltarget"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 8, Src: "fill"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 16, Src: "fill"},
		{Kind: HintData, Off: 8, Prio: PrioMedium, Score: 4, Len: 8, Src: "string"},
		{Kind: HintCode, Off: 9, Prio: PrioMedium, Score: 4, Src: "prologue"},
	}
	var want []Hint
	want = append(want, base...)
	SortHints(want)

	// Every rotation of the input must sort to the same sequence.
	for shift := 0; shift < len(base); shift++ {
		got := make([]Hint, 0, len(base))
		got = append(got, base[shift:]...)
		got = append(got, base[:shift]...)
		SortHints(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shift %d: hint %d = %+v, want %+v", shift, i, got[i], want[i])
			}
		}
	}

	// The canonical order itself: code before data at one offset, sources
	// alphabetical, shorter data regions first.
	wantSrcs := []string{"calltarget", "prologue", "fill", "fill", "string", "prologue"}
	for i, s := range wantSrcs {
		if want[i].Src != s {
			t.Fatalf("canonical order = %+v, want srcs %v", want, wantSrcs)
		}
	}
	if want[2].Len != 8 || want[3].Len != 16 {
		t.Errorf("len tie-break: %+v", want[2:4])
	}
}
