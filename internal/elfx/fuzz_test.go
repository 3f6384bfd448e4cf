package elfx

import (
	"bytes"
	"testing"
)

// FuzzParse: Parse must never panic, and every section, segment and
// ExecutableSections entry it returns must be zero-copy — its Data is
// data[Off:Off+len(Data)] itself, never a copy and never memory outside
// the input. Serving relies on that aliasing to keep spilled uploads,
// parsed straight off the spool's mmap view, off the heap. Run with
// `go test -fuzz=FuzzParse ./internal/elfx`; the seeds run under plain
// `go test`.
func FuzzParse(f *testing.F) {
	build := func(add func(b *Builder)) []byte {
		var b Builder
		b.Entry = 0x401000
		add(&b)
		img, err := b.Write()
		if err != nil {
			f.Fatal(err)
		}
		return img
	}
	f.Add(build(func(b *Builder) {
		b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, bytes.Repeat([]byte{0x90}, 32))
		b.AddSection(".data", 0x402000, SHFAlloc|SHFWrite, []byte{1, 2, 3, 4})
	}))
	f.Add(build(func(b *Builder) {
		b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, bytes.Repeat([]byte{0xc3}, 256))
		b.AddSection(".rodata", 0x402000, SHFAlloc, []byte("constant pool"))
		b.AddSection(".init", 0x403000, SHFAlloc|SHFExecinstr, []byte{0x90, 0xc3})
	}))
	f.Add(build(func(b *Builder) {
		b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, nil)
		b.AddSection(".more", 0x402000, SHFAlloc|SHFExecinstr, []byte{0xc3})
	}))
	f.Add(build(func(b *Builder) {
		b.AddSection(".text", 0x401000, SHFAlloc|SHFExecinstr, bytes.Repeat([]byte{0x90}, 32))
		b.AddNobits(".bss", 0x500000, SHFAlloc|SHFWrite, 0x1000)
	}))
	for _, tc := range malformedImages(f) {
		f.Add(tc.img)
	}
	f.Add([]byte("\x7fELF"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Parse(data)
		if err != nil {
			return
		}
		for _, s := range file.Sections {
			if s.Data != nil && uint64(len(s.Data)) != s.Size {
				t.Fatalf("section %q: data/size mismatch", s.Name)
			}
			if !aliases(data, s.Off, s.Data) {
				t.Fatalf("section %q: data is not input[%#x:] itself", s.Name, s.Off)
			}
		}
		for i, seg := range file.Segments {
			if uint64(len(seg.Data)) != seg.Filesz {
				t.Fatalf("segment %d: data/filesz mismatch", i)
			}
			if !aliases(data, seg.Off, seg.Data) {
				t.Fatalf("segment %d: data is not input[%#x:] itself", i, seg.Off)
			}
		}
		for _, s := range file.ExecutableSections() {
			if !aliases(data, s.Off, s.Data) {
				t.Fatalf("executable section %q: data is not input[%#x:] itself", s.Name, s.Off)
			}
		}
	})
}

// aliases reports whether a non-empty part is the input's own memory at
// off: same first byte, wholly inside the input. Empty parts (NOBITS and
// zero-size sections) reference nothing and pass.
func aliases(data []byte, off uint64, part []byte) bool {
	if len(part) == 0 {
		return true
	}
	return off < uint64(len(data)) && uint64(len(part)) <= uint64(len(data))-off &&
		&part[0] == &data[off]
}
