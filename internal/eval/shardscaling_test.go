package eval

import (
	"strconv"
	"testing"

	"probedis/internal/dis"
)

func TestT10ShardScaling(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := r.T10ShardScaling()
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "T10" {
		t.Fatalf("table ID = %q", tab.ID)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (whole-section + 3 shard sizes)", len(tab.Rows))
	}
	idx := func(name string) int {
		for i, c := range tab.Columns {
			if c == name {
				return i
			}
		}
		t.Fatalf("missing column %q", name)
		return -1
	}
	ident, allocs := idx("identical"), idx("allocs")
	whole, err := strconv.ParseFloat(tab.Rows[0][allocs], 64)
	if err != nil {
		t.Fatalf("whole-section allocs %q: %v", tab.Rows[0][allocs], err)
	}
	// Every shard size reads the same eager graph as the whole-section
	// run, so sharding must not multiply allocations.
	for _, row := range tab.Rows[1:] {
		if row[ident] != "yes" {
			t.Errorf("shard %s: identical = %q, want yes", row[0], row[ident])
		}
		got, err := strconv.ParseFloat(row[allocs], 64)
		if err != nil {
			t.Fatalf("shard %s allocs %q: %v", row[0], row[allocs], err)
		}
		if got > 1.3*whole {
			t.Errorf("shard %s: %.0f allocs, want within 1.3x of whole-section's %.0f", row[0], got, whole)
		}
	}
}

func TestIdentical(t *testing.T) {
	a := dis.NewResult(0x1000, 4)
	b := dis.NewResult(0x1000, 4)
	a.IsCode[1], b.IsCode[1] = true, true
	a.FuncStarts, b.FuncStarts = []int{1}, []int{1}
	if got := identical(a, b); got != "yes" {
		t.Fatalf("equal results: identical = %q", got)
	}
	b.InstStart[2] = true
	if got := identical(a, b); got != "NO" {
		t.Fatalf("differing InstStart: identical = %q", got)
	}
	b.InstStart[2] = false
	b.FuncStarts = []int{2}
	if got := identical(a, b); got != "NO" {
		t.Fatalf("differing FuncStarts: identical = %q", got)
	}
	c := dis.NewResult(0x1000, 3)
	if got := identical(a, c); got != "NO" {
		t.Fatalf("differing length: identical = %q", got)
	}
}
