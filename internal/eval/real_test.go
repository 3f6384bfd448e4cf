package eval

import (
	"path/filepath"
	"testing"

	"probedis/internal/core"
)

const realDir = "../../testdata/real"

// TestRealCorpusLoads: every committed fixture pairs a stripped ELF with
// a parsable truth record. (Truth *consistency* against the bytes is the
// oracle's InvTruth check, covered in internal/oracle's tests — the
// oracle package sits above eval and cannot be imported from here.)
func TestRealCorpusLoads(t *testing.T) {
	corpus, err := LoadReal(realDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) < 2 {
		t.Fatalf("real corpus has %d binaries, want >= 2 (asm + C fixture)", len(corpus))
	}
	for _, b := range corpus {
		if b.Truth.NumInsts() == 0 || len(b.Truth.FuncStarts) == 0 {
			t.Errorf("%s: truth has %d insts, %d funcs", b.Name, b.Truth.NumInsts(), len(b.Truth.FuncStarts))
		}
	}
}

// TestRealCorpusAccuracy: the core engine scores sanely on toolchain
// output — the T2-style metrics extend beyond the synthetic corpus.
// Bounds are deliberately loose; exact regression gating is cmd/accdiff's
// job on the pinned synthetic corpus.
func TestRealCorpusAccuracy(t *testing.T) {
	corpus, err := LoadReal(realDir)
	if err != nil {
		t.Fatal(err)
	}
	d := core.New(core.DefaultModel())
	m := ScoreCorpus(d, corpus)
	if r := m.ByteErrRate(); r > 0.10 {
		t.Errorf("byte error rate %.2f%% on real corpus, want <= 10%%", r*100)
	}
	if f1 := m.InstF1(); f1 < 0.90 {
		t.Errorf("inst F1 %.3f on real corpus, want >= 0.90", f1)
	}
}

// TestLoadRealBinaryRejects covers the loader's failure paths.
func TestLoadRealBinaryRejects(t *testing.T) {
	if _, err := LoadRealBinary(
		filepath.Join(realDir, "missing.elf"), filepath.Join(realDir, "strtab.truth")); err == nil {
		t.Error("missing ELF accepted")
	}
	if _, err := LoadRealBinary(
		filepath.Join(realDir, "strtab.elf"), filepath.Join(realDir, "missing.truth")); err == nil {
		t.Error("missing truth accepted")
	}
	// Mismatched pair: cfun's truth describes a different section size.
	if _, err := LoadRealBinary(
		filepath.Join(realDir, "strtab.elf"), filepath.Join(realDir, "cfun.truth")); err == nil {
		t.Error("mismatched ELF/truth pair accepted")
	}
	if _, err := LoadReal(t.TempDir()); err == nil {
		t.Error("empty corpus dir accepted")
	}
}
