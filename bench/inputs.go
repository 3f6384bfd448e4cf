package main

import (
	"encoding/binary"
	"fmt"

	"probedis/internal/elfx"
	"probedis/internal/synth"
)

// image is one generated input: a stripped ELF with a single .text
// section and the ground truth of that section.
type image struct {
	elf []byte
	bin *synth.Binary
	// nonce is the file offset of an 8-byte field in a non-allocated
	// section, or -1. Rewriting it changes the image's content address
	// (the serving cache key) without changing the work or the response.
	nonce int
}

// variant returns a copy of the image with nonce n.
func (im *image) variant(n uint64) []byte {
	b := append([]byte(nil), im.elf...)
	binary.LittleEndian.PutUint64(b[im.nonce:], n)
	return b
}

// seedBase spreads workload seeds apart so that images of different
// seeds never share a generator seed.
func seedBase(seed int64) int64 { return seed * 1_000_003 }

// corpusImages generates n images cycling over every generation profile
// and the given function counts, so each seed yields the same mix of
// profiles and sizes with different content.
func corpusImages(seed int64, n int, funcs []int, withNonce bool) ([]*image, error) {
	profiles := synth.AllProfiles()
	out := make([]*image, n)
	for i := range out {
		bin, err := synth.Generate(synth.Config{
			Seed:     seedBase(seed) + int64(i),
			Profile:  profiles[i%len(profiles)],
			NumFuncs: funcs[(i/len(profiles))%len(funcs)],
		})
		if err != nil {
			return nil, err
		}
		if out[i], err = newImage(bin, withNonce); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// largeImage generates one image whose single .text section holds at
// least size bytes: ground-truthed binaries generated at consecutive base
// addresses and concatenated, so branch targets stay consistent across
// the whole section (the construction of largeSection in bench_test.go).
func largeImage(seed int64, size int, withNonce bool) (*image, error) {
	const base = 0x401000
	whole := &synth.Binary{Name: "large", Base: base, Truth: &synth.Truth{}}
	addr := uint64(base)
	for k := int64(0); len(whole.Code) < size; k++ {
		bin, err := synth.Generate(synth.Config{
			Seed:     seedBase(seed) + 9000 + k,
			Profile:  synth.DefaultProfiles[k%int64(len(synth.DefaultProfiles))],
			NumFuncs: 300,
			Base:     addr,
		})
		if err != nil {
			return nil, err
		}
		if k == 0 {
			whole.Entry = bin.Entry
		}
		off := len(whole.Code)
		whole.Code = append(whole.Code, bin.Code...)
		t := whole.Truth
		t.Classes = append(t.Classes, bin.Truth.Classes...)
		t.InstStart = append(t.InstStart, bin.Truth.InstStart...)
		for _, f := range bin.Truth.FuncStarts {
			t.FuncStarts = append(t.FuncStarts, off+f)
		}
		addr += uint64(len(bin.Code))
	}
	return newImage(whole, withNonce)
}

const nonceSection = ".note.nonce"

// newImage serialises bin, optionally with a nonce section placed a page
// past the end of .text.
func newImage(bin *synth.Binary, withNonce bool) (*image, error) {
	var bld elfx.Builder
	bld.Entry = bin.Entry
	bld.AddSection(".text", bin.Base, elfx.SHFAlloc|elfx.SHFExecinstr, bin.Code)
	if withNonce {
		at := (bin.Base + uint64(len(bin.Code)) + 0x1fff) &^ 0xfff
		bld.AddSection(nonceSection, at, 0, make([]byte, 8))
	}
	img, err := bld.Write()
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", bin.Name, err)
	}
	im := &image{elf: img, bin: bin, nonce: -1}
	if withNonce {
		f, err := elfx.Parse(img)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", bin.Name, err)
		}
		im.nonce = int(f.Section(nonceSection).Off)
	}
	return im, nil
}
