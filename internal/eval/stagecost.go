package eval

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"probedis/internal/core"
	"probedis/internal/obs"
)

// t8StageCost profiles the pipeline itself: every corpus binary is
// disassembled under a trace span, and the spans are folded into a
// per-stage cost table (aggregated by span path, e.g. "hints/calltarget").
// Runs are serial so stage durations are additive and the percentages
// meaningful. A closing "unattributed" row is the root spans' time that
// no top-level stage accounts for.
func (r *Runner) t8StageCost() (Table, error) {
	t := Table{
		Title:   "Per-stage pipeline cost (traced serial runs, full corpus)",
		Columns: []string{"stage", "calls", "time", "% of total"},
	}
	d := core.New(r.Model, core.WithWorkers(1))

	type agg struct {
		dur   time.Duration
		calls int
	}
	stages := map[string]*agg{}
	var order []string
	var total, staged time.Duration
	record := func(path string, dur time.Duration) {
		a := stages[path]
		if a == nil {
			a = &agg{}
			stages[path] = a
			order = append(order, path)
		}
		a.dur += dur
		a.calls++
	}

	var corpusBytes, fallbacks int64
	for _, b := range r.Corpus {
		corpusBytes += int64(len(b.Code))
		tr := obs.NewTraceTimeOnly("disassemble")
		d.DisassembleSectionTraceContext(nil, b.Code, b.Base, int(b.Entry-b.Base), nil, tr)
		tr.End()
		total += tr.Dur
		// Fold the span tree into path-keyed aggregates; the root span is
		// the denominator, not a row.
		var walk func(s *obs.Span, prefix string)
		walk = func(s *obs.Span, prefix string) {
			for _, c := range s.Children() {
				path := c.Name
				if prefix != "" {
					path = prefix + "/" + c.Name
				} else {
					staged += c.Dur
				}
				record(path, c.Dur)
				fallbacks += c.Counter("scan_fallbacks")
				walk(c, path)
			}
		}
		walk(tr, "")
	}

	// Keep first-seen order for top-level stages (pipeline order), but
	// sort each stage's sub-stages by cost so the expensive analyses lead.
	sort.SliceStable(order, func(i, j int) bool {
		pi, _, _ := strings.Cut(order[i], "/")
		pj, _, _ := strings.Cut(order[j], "/")
		if pi != pj {
			return false // preserve pipeline order across top-level groups
		}
		return stages[order[i]].dur > stages[order[j]].dur
	})
	stages["unattributed"] = &agg{dur: total - staged, calls: len(r.Corpus)}
	order = append(order, "unattributed")
	for _, path := range order {
		a := stages[path]
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(a.dur) / float64(total)
		}
		t.AddRow(path, itoa(a.calls), a.dur.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", pct))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("total traced wall time: %s over %d binaries",
		total.Round(time.Millisecond), len(r.Corpus)))
	pct := 0.0
	if corpusBytes > 0 {
		pct = 100 * float64(fallbacks) / float64(corpusBytes)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"superset scan fallbacks to the full decoder: %d of %d offsets (%.2f%%)",
		fallbacks, corpusBytes, pct))
	return t, nil
}
