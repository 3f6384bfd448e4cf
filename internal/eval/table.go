package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: one paper table or one figure's
// data series.
type Table struct {
	ID      string // e.g. "T2", "F1", set by Experiment.Run
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV (ID and title as a comment line),
// ready for external plotting of the figure series.
func (t *Table) RenderCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtPct formats a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }
