package superset

import (
	"sync"
	"testing"

	"probedis/internal/synth"
	"probedis/internal/x86"
)

// TestInstAtConcurrent hammers one graph's 128-slot decode cache from
// parallel readers (run under -race by the tier-1 gate): every lookup
// must return the same instruction a fresh decode produces regardless of
// interleaving, and afterwards the global counters must account for
// every valid lookup — hits plus misses equals the lookups issued, so no
// path under contention skips or double-counts the stats.
func TestInstAtConcurrent(t *testing.T) {
	b, err := synth.Generate(synth.Config{Seed: 83, Profile: synth.ProfileAdvJTInline, NumFuncs: 12})
	if err != nil {
		t.Fatal(err)
	}
	g := Build(b.Code, b.Base)

	var valid []int
	want := map[int]x86.Inst{}
	for off := range g.Code {
		if g.Valid(off) {
			valid = append(valid, off)
			want[off] = g.InstAt(off) // warm-up doubles as the reference decode
		}
	}
	if len(valid) < decodeCacheSlots*2 {
		t.Fatalf("only %d valid offsets; need enough to thrash the %d-slot cache", len(valid), decodeCacheSlots)
	}

	const (
		goroutines = 8
		rounds     = 4
	)
	ResetDecodeCacheStats()

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(stride int) {
			defer wg.Done()
			// Each goroutine walks every valid offset with its own stride,
			// so different goroutines contend on different slots at any
			// instant and the direct-mapped slots are constantly evicted.
			for r := 0; r < rounds; r++ {
				for i := 0; i < len(valid); i++ {
					off := valid[(i*stride+r)%len(valid)]
					if got := g.InstAt(off); got != want[off] {
						select {
						case errs <- "+" + got.Op.String() + ": concurrent InstAt diverged from fresh decode":
						default:
						}
						return
					}
				}
			}
		}(gi + 1)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	hits, misses := DecodeCacheStats()
	lookups := int64(goroutines * rounds * len(valid))
	if hits+misses != lookups {
		t.Fatalf("decode cache stats leak under contention: hits %d + misses %d = %d, want %d lookups",
			hits, misses, hits+misses, lookups)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate contention run: hits %d, misses %d — the test should exercise both paths", hits, misses)
	}

	// Invalid offsets must not touch the counters.
	ResetDecodeCacheStats()
	if got := g.InstAt(-1); got.Flow != x86.FlowInvalid {
		t.Fatalf("InstAt(-1) = %+v", got)
	}
	if got := g.InstAt(g.Len()); got.Flow != x86.FlowInvalid {
		t.Fatalf("InstAt(len) = %+v", got)
	}
	if h, m := DecodeCacheStats(); h != 0 || m != 0 {
		t.Errorf("invalid-offset lookups counted: hits %d misses %d", h, m)
	}
}
