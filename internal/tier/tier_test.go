package tier

import (
	"math/rand"
	"reflect"
	"testing"

	"probedis/internal/analysis"
	"probedis/internal/correct"
)

// states builds a State slice from a compact string: 'c' = Code,
// 'd' = Data, '.' = Unknown.
func states(s string) []correct.State {
	out := make([]correct.State, len(s))
	for i, ch := range s {
		switch ch {
		case 'c':
			out[i] = correct.Code
		case 'd':
			out[i] = correct.Data
		case '.':
			out[i] = correct.Unknown
		default:
			panic("bad state char")
		}
	}
	return out
}

func TestFromStates(t *testing.T) {
	cases := []struct {
		name      string
		in        string
		windows   [][2]int
		settled   int
		contested int
	}{
		{"empty", "", nil, 0, 0},
		{"all settled", "ccdd", nil, 4, 0},
		{"all contested", "....", [][2]int{{0, 4}}, 0, 4},
		{"interior window", "cc...dd", [][2]int{{2, 5}}, 4, 3},
		{"window at start", "..cc", [][2]int{{0, 2}}, 2, 2},
		{"window at end", "cc..", [][2]int{{2, 4}}, 2, 2},
		{"multiple windows", ".c.d..c.", [][2]int{{0, 1}, {2, 3}, {4, 6}, {7, 8}}, 3, 5},
		{"single byte section", ".", [][2]int{{0, 1}}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := FromStates(states(tc.in))
			if p.Total != len(tc.in) {
				t.Errorf("Total = %d, want %d", p.Total, len(tc.in))
			}
			if !reflect.DeepEqual(p.Windows, tc.windows) {
				t.Errorf("Windows = %v, want %v", p.Windows, tc.windows)
			}
			if p.SettledBytes != tc.settled || p.ContestedBytes != tc.contested {
				t.Errorf("settled/contested = %d/%d, want %d/%d",
					p.SettledBytes, p.ContestedBytes, tc.settled, tc.contested)
			}
			if p.SettledBytes+p.ContestedBytes != p.Total {
				t.Errorf("settled+contested = %d, want Total %d",
					p.SettledBytes+p.ContestedBytes, p.Total)
			}
		})
	}
}

// fromStatesByteLoop is the byte-at-a-time scan FromStates replaced,
// kept as the reference for its word scan.
func fromStatesByteLoop(st []correct.State) *Partition {
	p := &Partition{Total: len(st)}
	for off := 0; off < len(st); {
		if st[off] != correct.Unknown {
			off++
			continue
		}
		a := off
		for off < len(st) && st[off] == correct.Unknown {
			off++
		}
		p.Windows = append(p.Windows, [2]int{a, off})
		p.ContestedBytes += off - a
	}
	p.SettledBytes = p.Total - p.ContestedBytes
	return p
}

// randomStates draws n states as runs of one state each, with run
// lengths from 1 to 2*mean-1, so runs cross and fill the eight-state
// words in every way.
func randomStates(rng *rand.Rand, n, mean int) []correct.State {
	st := make([]correct.State, 0, n)
	for len(st) < n {
		s := correct.State(rng.Intn(3))
		for k := 1 + rng.Intn(2*mean-1); k > 0 && len(st) < n; k-- {
			st = append(st, s)
		}
	}
	return st
}

// TestFromStatesMatchesByteLoop holds FromStates to the byte loop on
// random state arrays: every length up to 80 and some long ones, runs
// short and long.
func TestFromStatesMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 4000; trial++ {
		n := trial % 81
		if trial%40 == 0 {
			n = rng.Intn(1 << 14)
		}
		st := randomStates(rng, n, []int{1, 2, 5, 9, 40}[rng.Intn(5)])
		got, want := FromStates(st), fromStatesByteLoop(st)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("states %v:\nFromStates %+v\nbyte loop  %+v", st, got, want)
		}
		if len(got.Windows) != cap(got.Windows) {
			t.Fatalf("%d windows in a slice of capacity %d", len(got.Windows), cap(got.Windows))
		}
	}
}

// TestFromStatesAllocatesOnce: the partition and its window list are the
// only allocations, however many windows there are.
func TestFromStatesAllocatesOnce(t *testing.T) {
	st := randomStates(rand.New(rand.NewSource(9)), 1<<16, 4)
	if n := len(FromStates(st).Windows); n < 1000 {
		t.Fatalf("precondition: only %d windows", n)
	}
	if a := testing.AllocsPerRun(20, func() { FromStates(st) }); a > 2 {
		t.Fatalf("FromStates made %v allocations, want at most 2", a)
	}
}

func TestSplitHints(t *testing.T) {
	hints := []analysis.Hint{
		{Off: 0, Prio: analysis.PrioProof},
		{Off: 1, Prio: analysis.PrioStat},
		{Off: 2, Prio: analysis.PrioStrong},
		{Off: 3, Prio: analysis.PrioWeak},
		{Off: 4, Prio: analysis.PrioMedium},
		{Off: 5, Prio: analysis.PrioStat + 1}, // just above the boundary
	}
	structural, rest := SplitHints(hints)
	wantStructural := []int{0, 2, 4, 5}
	wantRest := []int{1, 3}
	var gotS, gotR []int
	for _, h := range structural {
		if h.Prio <= analysis.PrioStat {
			t.Errorf("structural hint at off %d has prio %d <= PrioStat", h.Off, h.Prio)
		}
		gotS = append(gotS, h.Off)
	}
	for _, h := range rest {
		if h.Prio > analysis.PrioStat {
			t.Errorf("rest hint at off %d has prio %d > PrioStat", h.Off, h.Prio)
		}
		gotR = append(gotR, h.Off)
	}
	if !reflect.DeepEqual(gotS, wantStructural) {
		t.Errorf("structural offsets = %v, want %v (input order must be preserved)", gotS, wantStructural)
	}
	if !reflect.DeepEqual(gotR, wantRest) {
		t.Errorf("rest offsets = %v, want %v (input order must be preserved)", gotR, wantRest)
	}
	if len(structural)+len(rest) != len(hints) {
		t.Errorf("split dropped hints: %d + %d != %d", len(structural), len(rest), len(hints))
	}
}

func TestSplitHintsEmpty(t *testing.T) {
	structural, rest := SplitHints(nil)
	if len(structural) != 0 || len(rest) != 0 {
		t.Errorf("SplitHints(nil) = %v, %v, want empty halves", structural, rest)
	}
}
