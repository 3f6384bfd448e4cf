package correct

import (
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/superset"
	"probedis/internal/x86"
)

// buildGraph wraps superset.Build with an all-viable mask for hand-made
// snippets (viability is tested separately in package analysis).
func buildGraph(code []byte) (*superset.Graph, []bool) {
	g := superset.Build(code, 0x1000)
	viable := analysis.Viability(g)
	return g, viable
}

// owners derives the instruction covering each byte (-1 for none) from
// InstStart and the decode lengths, failing on overlapping or empty
// instructions, and checks the ownership invariant retraction relies on:
// a byte is covered exactly when it is Code, by the nearest instruction
// start at most x86.MaxInstLen-1 bytes back.
func owners(t testing.TB, g *superset.Graph, out *Outcome) []int32 {
	t.Helper()
	own := make([]int32, g.Len())
	for i := range own {
		own[i] = -1
	}
	for off, start := range out.InstStart {
		if !start {
			continue
		}
		from, to := g.Occupies(off)
		if from == to {
			t.Fatalf("instruction start +%d occupies no bytes", off)
		}
		for i := from; i < to; i++ {
			if own[i] != -1 {
				t.Fatalf("byte +%d covered by instructions at +%d and +%d", i, own[i], off)
			}
			own[i] = int32(off)
		}
	}
	for i, o := range own {
		if (o != -1) != (out.State[i] == Code) {
			t.Fatalf("byte +%d: state %v, covering instruction %d", i, out.State[i], o)
		}
		if o == -1 {
			continue
		}
		j := i
		for !out.InstStart[j] {
			j--
		}
		if j != int(o) || i-j >= x86.MaxInstLen {
			t.Fatalf("byte +%d: nearest instruction start +%d, covering instruction +%d", i, j, o)
		}
	}
	return own
}

func TestCommitChainPropagates(t *testing.T) {
	// 0: push rbp; 1: mov rbp,rsp; 4: ret
	g, v := buildGraph([]byte{0x55, 0x48, 0x89, 0xe5, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
	}, Options{NoGapFill: true})
	for _, off := range []int{0, 1, 4} {
		if !out.InstStart[off] {
			t.Errorf("offset %d not committed", off)
		}
	}
	for i := 0; i < 5; i++ {
		if out.State[i] != Code {
			t.Errorf("byte %d state = %v", i, out.State[i])
		}
	}
	// Overlapping decodes must not be instruction starts.
	if out.InstStart[2] || out.InstStart[3] {
		t.Error("overlapping decode committed")
	}
}

func TestCommitChainFollowsBranches(t *testing.T) {
	// 0: je +1 (to 3); 2: ret; 3: ret
	g, v := buildGraph([]byte{0x74, 0x01, 0xc3, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
	}, Options{NoGapFill: true})
	for _, off := range []int{0, 2, 3} {
		if !out.InstStart[off] {
			t.Errorf("offset %d not committed", off)
		}
	}
}

func TestDataBlocksLaterCode(t *testing.T) {
	// 0: nop; 1: nop; 2: ret. Data hint on byte 1 at high priority, then a
	// code hint at 0 — the code hint would occupy only byte 0, fine; but a
	// code hint at 1 must be rejected.
	g, v := buildGraph([]byte{0x90, 0x90, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintData, Off: 1, Len: 1, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 1, Prio: analysis.PrioStat},
	}, Options{NoGapFill: true})
	if out.InstStart[1] {
		t.Error("code committed over proven data")
	}
	if out.State[1] != Data {
		t.Errorf("state[1] = %v", out.State[1])
	}
	if out.Rejected == 0 {
		t.Error("conflicting hint not counted as rejected")
	}
}

func TestPriorityOrderDecides(t *testing.T) {
	// Two contradictory hints on the same byte: the higher priority wins
	// regardless of order in the slice.
	g, v := buildGraph([]byte{0x90, 0xc3})
	hints := []analysis.Hint{
		{Kind: analysis.HintData, Off: 0, Len: 1, Prio: analysis.PrioStat},
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
	}
	out := Run(g, v, hints, Options{NoGapFill: true})
	if !out.InstStart[0] {
		t.Error("proof-priority code hint lost to stat-priority data hint")
	}

	// Swap priorities: data wins.
	hints[0].Prio = analysis.PrioProof
	hints[1].Prio = analysis.PrioStat
	out = Run(g, v, hints, Options{NoGapFill: true})
	if out.InstStart[0] {
		t.Error("stat-priority code hint beat proof-priority data hint")
	}
}

func TestLookaheadRejectsFallIntoData(t *testing.T) {
	// 0: nop; 1: nop; 2: ret — with byte 1 proven data first, committing
	// code at 0 must fail (its fallthrough starts on data).
	g, v := buildGraph([]byte{0x90, 0x90, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintData, Off: 1, Len: 1, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioStrong},
	}, Options{NoGapFill: true})
	if out.InstStart[0] {
		t.Error("instruction falling into data was committed")
	}
}

func TestRetraction(t *testing.T) {
	// 0: nop; 1: xor eax,eax; 3: ret. Proof data at byte 2 leaves the xor
	// at 1 unplaceable, so the nop at 0 commits with its fallthrough
	// pending; the weak data hint then turns byte 1 into data, and the nop
	// falls into data: retraction must un-commit it.
	g, v := buildGraph([]byte{0x90, 0x31, 0xc0, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintData, Off: 2, Len: 1, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioStrong},
		{Kind: analysis.HintData, Off: 1, Len: 1, Prio: analysis.PrioWeak},
	}, Options{NoGapFill: true})
	if out.Retracted != 1 {
		t.Fatalf("retracted = %d, want 1", out.Retracted)
	}
	if own := owners(t, g, out); out.InstStart[0] || out.State[0] != Data || own[0] != -1 {
		t.Errorf("nop at 0 survived retraction: start %v state %v owner %d",
			out.InstStart[0], out.State[0], own[0])
	}
}

func TestRetractReferenceOnMutatedState(t *testing.T) {
	// nop; nop; ret committed as one chain, then byte 1 hand-mutated to
	// data: a contradiction no commit sequence produces (data hints never
	// overwrite code), so only the reference scan, which visits every
	// offset, is defined on it.
	g, v := buildGraph([]byte{0x90, 0x90, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof}, // commits 0,1,2
	}, Options{NoGapFill: true})
	if !out.InstStart[0] || !out.InstStart[1] {
		t.Fatal("setup: chain did not commit")
	}
	out.State[1] = Data
	out.InstStart[1] = false
	if n := retractReference(g, out); n == 0 {
		t.Fatal("retractReference found no contradictions")
	}
	if out.InstStart[0] {
		t.Error("instruction falling into data survived retraction")
	}
	if out.State[0] != Data {
		t.Errorf("state[0] = %v after retraction", out.State[0])
	}
	// ret at 2 has no successors: must survive.
	if !out.InstStart[2] {
		t.Error("independent ret was retracted")
	}
}

func TestGapFillNops(t *testing.T) {
	// ret; 3-byte nop; ret — the nop island is claimed by nobody; gap fill
	// must tile it as code because it is pure NOP padding.
	code := []byte{0xc3, 0x0f, 0x1f, 0x00, 0xc3}
	g, v := buildGraph(code)
	scores := []float64{1, -5, -5, -5, 1} // padding scores data-like
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 4, Prio: analysis.PrioProof},
	}, Options{Scores: scores})
	if !out.InstStart[1] {
		t.Error("NOP gap not tiled as code")
	}
	if out.State[2] != Code {
		t.Errorf("state[2] = %v", out.State[2])
	}
}

func TestGapFillDataWhenNegative(t *testing.T) {
	// ret; <string bytes>; ret — gap scores negative, not NOPs: data.
	code := append([]byte{0xc3}, []byte("AAAA")...)
	code = append(code, 0xc3)
	g, v := buildGraph(code)
	scores := make([]float64, len(code))
	for i := range scores {
		scores[i] = -3
	}
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 5, Prio: analysis.PrioProof},
	}, Options{Scores: scores})
	for i := 1; i < 5; i++ {
		if out.State[i] != Data {
			t.Errorf("gap byte %d = %v, want Data", i, out.State[i])
		}
	}
}

func TestMaxHints(t *testing.T) {
	g, v := buildGraph([]byte{0x90, 0xc3, 0x90, 0xc3})
	hints := []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof, Score: 2},
		{Kind: analysis.HintCode, Off: 2, Prio: analysis.PrioProof, Score: 1},
	}
	out := Run(g, v, hints, Options{MaxHints: 1, NoGapFill: true})
	if !out.InstStart[0] {
		t.Error("first hint not committed")
	}
	if out.InstStart[2] {
		t.Error("second hint committed despite MaxHints=1")
	}
}

func TestDataHintMajorityBlocked(t *testing.T) {
	// Commit 5 bytes of code, then a 6-byte data hint mostly covering it:
	// refuted.
	g, v := buildGraph([]byte{0x48, 0x89, 0xe5, 0x90, 0xc3, 0x00})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: 0, Prio: analysis.PrioProof},
		{Kind: analysis.HintData, Off: 0, Len: 6, Prio: analysis.PrioStat},
	}, Options{NoGapFill: true})
	if out.Committed != 1 || out.Rejected != 1 {
		t.Errorf("committed=%d rejected=%d, want 1/1", out.Committed, out.Rejected)
	}
}

func TestEmptyHints(t *testing.T) {
	g, v := buildGraph([]byte{0x90, 0xc3})
	out := Run(g, v, nil, Options{})
	// Gap fill with nil scores treats the gap as code-like.
	if !out.InstStart[0] || !out.InstStart[1] {
		t.Errorf("gap fill without hints: %v", out.InstStart)
	}
}

func TestOutOfRangeHints(t *testing.T) {
	g, v := buildGraph([]byte{0x90, 0xc3})
	out := Run(g, v, []analysis.Hint{
		{Kind: analysis.HintCode, Off: -1, Prio: analysis.PrioProof},
		{Kind: analysis.HintCode, Off: 99, Prio: analysis.PrioProof},
		{Kind: analysis.HintData, Off: 99, Len: 4, Prio: analysis.PrioProof},
		{Kind: analysis.HintData, Off: 0, Len: 0, Prio: analysis.PrioProof},
	}, Options{NoGapFill: true})
	if out.Committed != 0 {
		t.Errorf("committed = %d, want 0", out.Committed)
	}
}
