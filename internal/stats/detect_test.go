package stats

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// The byte-loop references below test every byte (or every table start)
// in turn, with no probe stride and no prefilter. FillRuns,
// PrintableRuns, OffsetTables and PointerArrays must return exactly what
// they return.

func printableRunsRef(code []byte, minLen int) []Run {
	var out []Run
	i := 0
	for i < len(code) {
		if !printable(code[i]) {
			i++
			continue
		}
		j := i
		for j < len(code) && printable(code[j]) {
			j++
		}
		if j-i >= minLen && (j == len(code) || code[j] == 0) {
			end := j
			for end < len(code) && code[end] == 0 {
				end++
			}
			out = append(out, Run{i, end})
		}
		i = j + 1
	}
	return out
}

func fillRunsRef(code []byte, minLen int) []Run {
	var out []Run
	i := 0
	for i < len(code) {
		b := code[i]
		if b != 0x00 && b != 0xcc {
			i++
			continue
		}
		j := i
		for j < len(code) && code[j] == b {
			j++
		}
		if j-i >= minLen {
			out = append(out, Run{i, j})
		}
		i = j
	}
	return out
}

// tableRunsRef is the greedy table scan shared by the pointer-array and
// offset-table references: from each start, count the consecutive
// entrySz-byte entries ok accepts; a count of at least minEntries (below
// 1 counts as 1) reports the run, merged into an overlapping predecessor,
// and resumes after it.
func tableRunsRef(code []byte, entrySz, minEntries int, ok func(start, at int) bool) []Run {
	minEntries = max(minEntries, 1)
	var out []Run
	for i := 0; i+entrySz <= len(code); {
		j := i
		for j+entrySz <= len(code) && ok(i, j) {
			j += entrySz
		}
		if (j-i)/entrySz < minEntries {
			i++
			continue
		}
		if k := len(out); k > 0 && out[k-1].To >= i {
			out[k-1].To = max(out[k-1].To, j)
		} else {
			out = append(out, Run{i, j})
		}
		i = j
	}
	return out
}

func pointerArraysRef(code []byte, base uint64, minEntries int) []Run {
	return tableRunsRef(code, 8, minEntries, func(_, at int) bool {
		v := binary.LittleEndian.Uint64(code[at:])
		return v >= base && v-base < uint64(len(code))
	})
}

func offsetTablesRef(code []byte, minEntries int) []Run {
	return tableRunsRef(code, 4, minEntries, func(start, at int) bool {
		v := int64(int32(binary.LittleEndian.Uint32(code[at:])))
		t := int64(start) + v
		return t >= 0 && t < int64(len(code)) && v != 0
	})
}

// checkDataPatterns compares every data-pattern scan of code with its
// reference at minLen and minEntries 0 through 9.
func checkDataPatterns(t *testing.T, name string, code []byte, base uint64) {
	t.Helper()
	for m := 0; m <= 9; m++ {
		for _, c := range []struct {
			scan      string
			got, want []Run
		}{
			{"FillRuns", FillRuns(code, m), fillRunsRef(code, m)},
			{"PrintableRuns", PrintableRuns(code, m), printableRunsRef(code, m)},
			{"OffsetTables", OffsetTables(code, m), offsetTablesRef(code, m)},
			{"PointerArrays", PointerArrays(code, base, m), pointerArraysRef(code, base, m)},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s: %s(min %d) = %v, reference %v", name, c.scan, m, c.got, c.want)
			}
		}
	}
}

// dataPatternSeedBase is the load address the crafted pointer arrays
// point into.
const dataPatternSeedBase = 0x400000

// dataPatternSeed is a named section built on the scans' edges.
type dataPatternSeed struct {
	name string
	code []byte
}

// dataPatternSeeds are the crafted sections, in a fixed order.
func dataPatternSeeds() []dataPatternSeed {
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	rep := func(b byte, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	code := []byte{0x55, 0x48, 0x89, 0xe5, 0x90, 0xc3}

	// Offset-table entries relative to a table at start 8 of a 64-byte
	// section, landing at 0, n-1, -1 and n.
	const n, start = 64, 8
	entry := func(target int) []byte {
		return binary.LittleEndian.AppendUint32(nil, uint32(int32(target-start)))
	}
	table := func(targets ...int) []byte {
		out := rep(0x90, start)
		for _, tg := range targets {
			out = append(out, entry(tg)...)
		}
		return append(out, rep(0x90, n-len(out))...)
	}

	var ptrs []byte
	for i := 0; i < 4; i++ {
		ptrs = binary.LittleEndian.AppendUint64(ptrs, dataPatternSeedBase+uint64(8*i))
	}
	return []dataPatternSeed{
		{"fill of 8 at start and end", cat(rep(0, 8), code, rep(0xcc, 8))},
		{"fill of 6 at start and end", cat(rep(0xcc, 6), code, rep(0, 6))},
		{"00 run abutting cc run", cat(code, rep(0, 9), rep(0xcc, 9), code)},
		{"cc run abutting 00 run", cat(code, rep(0xcc, 5), rep(0, 4), code)},
		{"string of 6 at start", cat([]byte("abcdef\x00"), code)},
		{"string at end, no NUL", cat(code, []byte("hello world"))},
		{"string of 6 at end", cat(code, []byte("abcdef"))},
		{"strings split by NULs", []byte("ab\x00cdefgh\x00\x00ijk\x00lmnopqrstu")},
		{"table to 0 and n-1, then -1", table(0, n-1, 0, n-1, -1)},
		{"table to n-1 and 0, then n", table(n-1, 0, n-1, 0, n)},
		{"pointer array", cat(code, ptrs, code)},
		{"pointer array at end", cat(code, ptrs)},
	}
}

// TestDataPatternsMatchReference runs the scans against their references
// on the crafted edges, random bytes and a byte soup rich in fill,
// printable and small-offset values.
func TestDataPatternsMatchReference(t *testing.T) {
	for _, s := range dataPatternSeeds() {
		checkDataPatterns(t, s.name, s.code, dataPatternSeedBase)
	}
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 20; i++ {
		code := make([]byte, rng.Intn(3000))
		rng.Read(code)
		// Overwrite stretches with patterned bytes so every scan finds runs.
		for k := 0; k < len(code)/40; k++ {
			at, l := rng.Intn(len(code)), 1+rng.Intn(16)
			for j := at; j < min(at+l, len(code)); j++ {
				switch k % 4 {
				case 0:
					code[j] = 0
				case 1:
					code[j] = 0xcc
				case 2:
					code[j] = byte('a' + rng.Intn(26))
				default:
					code[j] = byte(rng.Intn(3))
				}
			}
		}
		checkDataPatterns(t, "random", code, uint64(rng.Intn(3))<<8)
	}
}

// topPointerArray is a 64-byte section at base: four pointers to its own
// first bytes, then NOP padding.
func topPointerArray(base uint64) []byte {
	var code []byte
	for i := 0; i < 4; i++ {
		code = binary.LittleEndian.AppendUint64(code, base+uint64(8*i))
	}
	for len(code) < 64 {
		code = append(code, 0x90)
	}
	return code
}

// TestPointerArraysAtTopOfAddressSpace: a section ending at 2^64 finds the
// pointer array it finds anywhere else; the end address base+len wraps
// to 0 there, so a bounds test against it rejected every pointer.
func TestPointerArraysAtTopOfAddressSpace(t *testing.T) {
	want := []Run{{0, 32}}
	for _, base := range []uint64{0x400000, 1<<64 - 64} {
		if got := PointerArrays(topPointerArray(base), base, 3); !reflect.DeepEqual(got, want) {
			t.Errorf("base %#x: PointerArrays = %v, want %v", base, got, want)
		}
	}
}

// FuzzDataPatternsMatchReference extends the differential to fuzzed
// bytes and load addresses. Run with
// `go test -fuzz=FuzzDataPatternsMatchReference ./internal/stats`.
func FuzzDataPatternsMatchReference(f *testing.F) {
	for _, s := range dataPatternSeeds() {
		f.Add(s.code, uint64(dataPatternSeedBase))
	}
	// The crafted pointer array again, at a base whose section ends at
	// 2^64 and one that straddles it.
	for _, top := range []uint64{1<<64 - 64, 1<<64 - 40} {
		f.Add(topPointerArray(top), top)
	}
	f.Fuzz(func(t *testing.T, code []byte, base uint64) {
		if len(code) > 4<<10 {
			return
		}
		checkDataPatterns(t, "fuzz", code, base)
	})
}
