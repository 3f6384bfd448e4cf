package core

import (
	"bytes"
	"reflect"
	"testing"

	"probedis/internal/stats"
	"probedis/internal/synth"
)

func accuracy(b *synth.Binary, isCode, instStart []bool) (byteErr float64, fp, fn, tp int) {
	wrongBytes := 0
	for i, c := range b.Truth.Classes {
		var truthCode bool = c == synth.ClassCode
		if isCode[i] != truthCode {
			wrongBytes++
		}
	}
	for i := range instStart {
		switch {
		case instStart[i] && b.Truth.InstStart[i]:
			tp++
		case instStart[i] && !b.Truth.InstStart[i]:
			fp++
		case !instStart[i] && b.Truth.InstStart[i]:
			fn++
		}
	}
	return float64(wrongBytes) / float64(len(b.Code)), fp, fn, tp
}

func TestEndToEndAccuracy(t *testing.T) {
	d := New(DefaultModel())
	for _, p := range synth.DefaultProfiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			b, err := synth.Generate(synth.Config{Seed: 5, Profile: p, NumFuncs: 50})
			if err != nil {
				t.Fatal(err)
			}
			entry := int(b.Entry - b.Base)
			res := d.Disassemble(b.Code, b.Base, entry)
			byteErr, fp, fn, tp := accuracy(b, res.IsCode, res.InstStart)
			t.Logf("bytes=%d dataBytes=%d byteErr=%.5f instFP=%d instFN=%d instTP=%d",
				len(b.Code), b.Truth.DataBytes(), byteErr, fp, fn, tp)
			if byteErr > 0.02 {
				t.Errorf("byte error rate %.4f > 2%%", byteErr)
			}
			if tp == 0 {
				t.Fatal("no true positives")
			}
			if errFrac := float64(fp+fn) / float64(tp+fn); errFrac > 0.03 {
				t.Errorf("instruction error fraction %.4f > 3%%", errFrac)
			}
		})
	}
}

// TestSavedModelMatchesTrained: the default model, saved by WriteTo and
// loaded by stats.ReadModel, drives the pipeline exactly as the trained
// model does. On this binary a model file that rounds the scores to
// float32, whether both models' tables or their difference, commits and
// rejects a different number of hints.
func TestSavedModelMatchesTrained(t *testing.T) {
	var buf bytes.Buffer
	if _, err := DefaultModel().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := stats.ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synth.Generate(synth.Config{Seed: 2, Profile: synth.ProfileVec, NumFuncs: 300})
	if err != nil {
		t.Fatal(err)
	}
	entry := int(b.Entry - b.Base)
	want, _ := New(DefaultModel()).DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
	got, _ := New(loaded).DisassembleSectionTraceContext(nil, b.Code, b.Base, entry, nil, nil)
	if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Fatalf("loaded model: %d code bytes, %d committed, %d rejected; trained model: %d, %d, %d",
			got.Result.CodeBytes(), got.Outcome.Committed, got.Outcome.Rejected,
			want.Result.CodeBytes(), want.Outcome.Committed, want.Outcome.Rejected)
	}
}
