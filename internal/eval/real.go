package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"probedis/internal/elfx"
	"probedis/internal/synth"
)

// Real-binary corpus support: binaries built by a real toolchain and
// checked into testdata/real/ as a stripped executable plus a
// probedis-truth file extracted by cmd/truthgen from evaluation-only
// compiler metadata (assembler listings, symtab, DWARF). Loaded here
// into the same synth.Binary shape the synthetic corpus uses, so every
// experiment and scorer applies unchanged.

// DefaultRealDir is the real-binary corpus NewRunner gives E4, relative
// to the repository root.
const DefaultRealDir = "testdata/real"

// LoadReal loads every <name>.elf / <name>.truth pair under dir.
func LoadReal(dir string) ([]*synth.Binary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.truth"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*synth.Binary
	for _, tp := range paths {
		name := strings.TrimSuffix(filepath.Base(tp), ".truth")
		b, err := LoadRealBinary(filepath.Join(dir, name+".elf"), tp)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eval: no .truth files under %s", dir)
	}
	return out, nil
}

// LoadRealBinary pairs one stripped executable with its truth file. The
// truth's recorded base selects the executable section it describes;
// the ELF entry point seeds the pipeline exactly as for synthetic
// binaries (entry outside that section falls back to offset 0).
func LoadRealBinary(elfPath, truthPath string) (*synth.Binary, error) {
	tf, err := os.Open(truthPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	truth, base, err := synth.ReadTruth(tf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", truthPath, err)
	}
	img, err := os.ReadFile(elfPath)
	if err != nil {
		return nil, err
	}
	f, err := elfx.Parse(img)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", elfPath, err)
	}
	for _, sec := range f.ExecutableSections() {
		if sec.Addr != base {
			continue
		}
		if int(sec.Size) != len(truth.Classes) {
			return nil, fmt.Errorf("%s: section %#x has %d bytes, truth describes %d",
				elfPath, base, sec.Size, len(truth.Classes))
		}
		entry := f.Entry
		if entry < base || entry >= base+sec.Size {
			entry = base
		}
		return &synth.Binary{
			Name:  strings.TrimSuffix(filepath.Base(elfPath), ".elf"),
			Code:  sec.Data,
			Base:  base,
			Entry: entry,
			Truth: truth,
		}, nil
	}
	return nil, fmt.Errorf("%s: no executable section at truth base %#x", elfPath, base)
}

// e4Real scores every engine on the real-binary corpus under r.RealDir —
// toolchain output with truth extracted from compiler artifacts rather
// than generated, closing the synthetic-only evaluation gap.
func (r *Runner) e4Real() (Table, error) {
	t := Table{
		Title:   "Extension: real binaries (truth from compiler artifacts)",
		Columns: []string{"engine", "byte-err", "inst-F1", "err/1k-inst", "func-F1"},
	}
	corpus, err := LoadReal(r.RealDir)
	if err != nil {
		return t, err
	}
	var names []string
	for _, b := range corpus {
		names = append(names, fmt.Sprintf("%s (%d bytes)", b.Name, len(b.Code)))
	}
	t.Notes = append(t.Notes, "corpus: "+strings.Join(names, ", "))
	for _, e := range r.engines() {
		m := ScoreCorpus(e, corpus)
		t.AddRow(e.Name(), fmtPct(m.ByteErrRate()), fmtF(m.InstF1()),
			fmtF(m.ErrorFactor()), fmtF(m.FuncF1()))
	}
	return t, nil
}
