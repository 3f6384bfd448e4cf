package core

import (
	"reflect"
	"testing"

	"probedis/internal/obs"
)

// traceELF builds a two-section image (reusing the parallel-test helper
// corpus style) and returns it with the default model pipeline.
func traceELF(t *testing.T) []byte {
	t.Helper()
	return buildMultiSectionELF(t, 3, 30)
}

// TestTracedRunMatchesUntraced: tracing must observe, never steer — the
// classification with a live span tree is byte-identical to the plain run.
func TestTracedRunMatchesUntraced(t *testing.T) {
	img := traceELF(t)
	d := New(DefaultModel(), WithWorkers(1))

	plain, err := d.DisassembleELFDetail(img)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("disassemble")
	traced, err := d.DisassembleELFTrace(img, tr)
	tr.End()
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(traced) {
		t.Fatalf("section count: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		a, b := plain[i].Detail.Result, traced[i].Detail.Result
		if !reflect.DeepEqual(a.IsCode, b.IsCode) || !reflect.DeepEqual(a.InstStart, b.InstStart) ||
			!reflect.DeepEqual(a.FuncStarts, b.FuncStarts) {
			t.Errorf("section %d: traced result differs from untraced", i)
		}
	}
}

// TestTraceSpanTree checks the serial span tree's shape: parse + one
// section span per section; each section span contains every stage with
// its analyses, counters, and durations that account for (nearly) all of
// the section's wall time.
func TestTraceSpanTree(t *testing.T) {
	img := traceELF(t)
	d := New(DefaultModel(), WithWorkers(1))
	tr := obs.NewTrace("disassemble")
	secs, err := d.DisassembleELFTrace(img, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.End()

	kids := tr.Children()
	if len(kids) != 1+len(secs) {
		t.Fatalf("root children = %d, want parse + %d sections", len(kids), len(secs))
	}
	if kids[0].Name != "parse" || kids[0].Bytes != int64(len(img)) {
		t.Fatalf("first child = %q bytes=%d", kids[0].Name, kids[0].Bytes)
	}
	for i, sec := range kids[1:] {
		if sec.Name != "section" || sec.Label != secs[i].Name {
			t.Fatalf("section span %d: name=%q label=%q", i, sec.Name, sec.Label)
		}
		if sec.Bytes != int64(len(secs[i].Data)) {
			t.Errorf("section %d bytes = %d, want %d", i, sec.Bytes, len(secs[i].Data))
		}
		stages := map[string]*obs.Span{}
		for _, st := range sec.Children() {
			stages[st.Name] = st
		}
		// Statistical scoring happens inside the correction stage, so
		// "stats" is a child of "correct" rather than of the section span.
		for _, want := range []string{"superset", "viability", "hints", "correct", "emit", "cfg"} {
			if stages[want] == nil {
				t.Fatalf("section %d missing stage span %q (have %v)", i, want, names(sec.Children()))
			}
		}
		// The stage spans are consecutive on the serial path: their summed
		// duration accounts for the section's wall time (and never exceeds it).
		if sum := sec.ChildSum(); sum > sec.Dur {
			t.Errorf("section %d: stages sum %v > section %v", i, sum, sec.Dur)
		}
		if st := stages["superset"]; st.Counter("valid_insts") <= 0 {
			t.Error("superset span lost valid_insts counter")
		}
		// Detail.Hints is the run's total hint count: the structural/weak
		// stream collected up front plus the statistical hints generated
		// inside the correction stage.
		var statCount int64
		for _, c := range stages["correct"].Children() {
			if c.Name == "stathints" {
				statCount = c.Counter("hints")
			}
		}
		if st := stages["hints"]; st.Counter("hints")+statCount != int64(secs[i].Detail.Hints) {
			t.Errorf("hints counter = %d (+%d stat), want %d",
				st.Counter("hints"), statCount, secs[i].Detail.Hints)
		}
		// Per-analysis child spans under "hints", in serial execution
		// order: the whole-section tasks, then the per-shard analyses of
		// the single shard. The "stat" analysis runs inside the correction
		// stage, so it is absent here.
		an := names(stages["hints"].Children())
		wantAn := []string{"entry", "datapattern", "jumptable", "calltarget", "prologue", "literalpool"}
		if !reflect.DeepEqual(an, wantAn) {
			t.Errorf("analysis spans = %v, want %v", an, wantAn)
		}
		// Each analysis span counts the hints it contributed (call
		// targets after the global count merge), so they add up to the
		// collected stream.
		var perAnalysis int64
		for _, c := range stages["hints"].Children() {
			perAnalysis += c.Counter("hints")
			if c.Name == "calltarget" && c.Counter("hints") <= 0 {
				t.Errorf("section %d: calltarget span recorded no hints", i)
			}
		}
		if total := stages["hints"].Counter("hints"); perAnalysis != total {
			t.Errorf("section %d: per-analysis hint counters sum to %d, want %d", i, perAnalysis, total)
		}
		// Correction sub-phases (tiered: two commit phases bracketing the
		// contested-window scoring) and outcome counters.
		cor := stages["correct"]
		wantCor := []string{"sort-structural", "commit-structural", "tier", "stats", "stathints",
			"sort-contested", "commit-contested", "retract", "gapfill"}
		if got := names(cor.Children()); !reflect.DeepEqual(got, wantCor) {
			t.Errorf("correct sub-spans = %v, want %v", got, wantCor)
		}
		if ti := secs[i].Detail.Tier; ti == nil {
			t.Errorf("section %d: default pipeline left Detail.Tier nil", i)
		} else {
			var tsp *obs.Span
			for _, c := range cor.Children() {
				if c.Name == "tier" {
					tsp = c
				}
			}
			if tsp.Counter("settled") != int64(ti.SettledBytes) ||
				tsp.Counter("contested") != int64(ti.ContestedBytes) ||
				tsp.Counter("windows") != int64(len(ti.Windows)) {
				t.Errorf("tier span counters %v diverge from partition %+v", tsp.Counters(), ti)
			}
		}
		out := secs[i].Detail.Outcome
		if cor.Counter("committed") != int64(out.Committed) ||
			cor.Counter("rejected") != int64(out.Rejected) ||
			cor.Counter("retracted") != int64(out.Retracted) {
			t.Errorf("correct counters diverge from outcome: %v vs %+v", cor.Counters(), out)
		}
		// CFG sub-phases and structure counters.
		cf := stages["cfg"]
		if got := names(cf.Children()); !reflect.DeepEqual(got, []string{"leaders", "blocks", "funcs"}) {
			t.Errorf("cfg sub-spans = %v", got)
		}
		if cf.Counter("blocks") != int64(secs[i].Detail.CFG.NumBlocks()) {
			t.Errorf("cfg blocks counter = %d, want %d",
				cf.Counter("blocks"), secs[i].Detail.CFG.NumBlocks())
		}
	}
}

// TestTraceParallelWorkers runs the traced pipeline with the full worker
// pool: results must stay identical to the serial traced run and every
// section/analysis span must still be present (order is scheduler-driven).
// Primarily a -race exercise of concurrent StartChild/Count.
func TestTraceParallelWorkers(t *testing.T) {
	img := traceELF(t)
	d := New(DefaultModel())
	tr := obs.NewTrace("disassemble")
	secs, err := d.Clone(WithWorkers(4)).DisassembleELFTrace(img, tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.End()

	serial, err := d.Clone(WithWorkers(1)).DisassembleELFDetail(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := range secs {
		if !reflect.DeepEqual(secs[i].Detail.Result.IsCode, serial[i].Detail.Result.IsCode) {
			t.Errorf("section %d: parallel traced result diverged", i)
		}
	}
	nsec := 0
	for _, c := range tr.Children() {
		if c.Name == "section" {
			nsec++
			if len(c.Children()) == 0 {
				t.Error("section span has no stage spans")
			}
		}
	}
	if nsec != len(secs) {
		t.Errorf("section spans = %d, want %d", nsec, len(secs))
	}
}

func names(spans []*obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}
