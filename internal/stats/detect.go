package stats

import "encoding/binary"

// Run is a detected data-like byte range [From, To).
type Run struct {
	From, To int
}

// Len returns the run length.
func (r Run) Len() int { return r.To - r.From }

func printable(b byte) bool {
	return b >= 0x20 && b < 0x7f || b == '\t' || b == '\n' || b == '\r'
}

// PrintableRuns finds printable-ASCII runs of at least minLen characters
// that are NUL-terminated — the signature of inline string islands — or
// that end exactly at the section boundary. The boundary case is
// deliberately included: a string island placed last in the section has
// its terminator (or its next sibling) in the following section, and
// dropping the run would misclassify the trailing string as code. The
// returned range includes the terminating NUL(s), if present.
//
// It probes one byte in every max(minLen, 1) and expands around a
// printable probe to its maximal run: a run of at least minLen bytes
// always contains a probe, so no qualifying run is missed.
func PrintableRuns(code []byte, minLen int) []Run {
	var out []Run
	step := max(minLen, 1)
	for p := step - 1; p < len(code); p += step {
		if !printable(code[p]) {
			continue
		}
		i, j := p, p+1
		for i > 0 && printable(code[i-1]) {
			i--
		}
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
		p = nextProbe(p, j, step)
	}
	return out
}

// FillRuns finds runs of an identical fill byte (0x00 or 0xCC) of at least
// minLen bytes — linker and MSVC-style padding. Like PrintableRuns it
// probes one byte in every max(minLen, 1) and expands around a fill-byte
// probe, so every qualifying maximal run is found.
func FillRuns(code []byte, minLen int) []Run {
	var out []Run
	step := max(minLen, 1)
	for p := step - 1; p < len(code); p += step {
		b := code[p]
		if b != 0x00 && b != 0xcc {
			continue
		}
		i, j := p, p+1
		for i > 0 && code[i-1] == b {
			i--
		}
		for j < len(code) && code[j] == b {
			j++
		}
		if j-i >= minLen {
			out = append(out, Run{i, j})
		}
		p = nextProbe(p, j, step)
	}
	return out
}

// nextProbe returns the last probe before the first one at or after end,
// for a probe loop at stride step that sits at p: the loop's increment
// then lands on the first probe past a run that ended at end.
func nextProbe(p, end, step int) int {
	if p+step < end {
		p += (end - p - 1) / step * step
	}
	return p
}

// PointerArrays finds runs of at least minEntries consecutive 8-byte
// little-endian values that all point inside [base, base+len(code)) — the
// signature of absolute jump tables and vtables embedded in text. Runs are
// reported greedily at every alignment; overlapping runs are merged. A
// minEntries below 1 counts as 1.
func PointerArrays(code []byte, base uint64, minEntries int) []Run {
	minEntries = max(minEntries, 1)
	// Offset form of v in [base, base+len): base+len wraps for a section
	// ending at the top of the address space.
	size := uint64(len(code))
	var out []Run
	i := 0
	for i+8 <= len(code) {
		v := binary.LittleEndian.Uint64(code[i:])
		if v < base || v-base >= size {
			i++
			continue
		}
		j := i
		n := 0
		for j+8 <= len(code) {
			v := binary.LittleEndian.Uint64(code[j:])
			if v < base || v-base >= size {
				break
			}
			n++
			j += 8
		}
		if n >= minEntries {
			if k := len(out); k > 0 && out[k-1].To >= i {
				if j > out[k-1].To {
					out[k-1].To = j
				}
			} else {
				out = append(out, Run{i, j})
			}
			i = j
			continue
		}
		i++
	}
	return out
}

// OffsetTables finds runs of at least minEntries consecutive 4-byte values
// that, interpreted as signed offsets relative to the run start, all land
// inside the section — the signature of PIC jump tables. A minEntries
// below 1 counts as 1.
//
// Most starts fail their first entry, so when a run needs two or more
// entries a tight loop (nextTableStart) first skips every start whose
// first two entries do not both pass, testing them without branching per
// entry; only the starts it stops at run the exact counting loop.
func OffsetTables(code []byte, minEntries int) []Run {
	minEntries = max(minEntries, 1)
	var out []Run
	n := len(code)
	for i := 0; i+4 <= n; {
		if minEntries > 1 {
			if i = nextTableStart(code, i); i+4 > n {
				break
			}
		}
		j := i
		cnt := 0
		for j+4 <= n {
			v := int64(int32(binary.LittleEndian.Uint32(code[j:])))
			t := int64(i) + v
			// Offsets must be non-trivial and land in-section; an offset
			// of 0 (table pointing at itself) is implausible.
			if t < 0 || t >= int64(n) || v == 0 {
				break
			}
			cnt++
			j += 4
		}
		if cnt >= minEntries {
			if k := len(out); k > 0 && out[k-1].To >= i {
				if j > out[k-1].To {
					out[k-1].To = j
				}
			} else {
				out = append(out, Run{i, j})
			}
			i = j
			continue
		}
		i++
	}
	return out
}

// nextTableStart returns the first start at or after i whose first two
// 4-byte offsets both pass OffsetTables' entry test, or the first start
// with fewer than 8 bytes left.
func nextTableStart(code []byte, i int) int {
	last := int64(len(code)) - 1
	for ; i+8 <= len(code); i++ {
		// Entry k passes when v_k != 0 and 0 <= t_k <= last: the sign
		// bit of ok is set exactly when both pass.
		u := binary.LittleEndian.Uint64(code[i:])
		v0, v1 := int64(int32(u)), int64(int32(u>>32))
		t0, t1 := int64(i)+v0, int64(i)+v1
		outside := t0 | (last - t0) | t1 | (last - t1)
		if ok := ^outside & (v0 | -v0) & (v1 | -v1); ok < 0 {
			break
		}
	}
	return i
}
