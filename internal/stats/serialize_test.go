package stats

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"strings"
	"testing"

	"probedis/internal/superset"
	"probedis/internal/synth"
)

// TestModelRoundTrip: a saved and loaded model is the model that was
// saved, and scores every offset of a held-out binary to the same bits.
// Its Digest hashes the tables exactly as the file stores them.
func TestModelRoundTrip(t *testing.T) {
	m := trainModel(t)
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if want := int64(8 + 8*numTok + 8*numTok*numTok); n != want {
		t.Errorf("WriteTo wrote %d bytes, want %d", n, want)
	}
	if sha256.Sum256(buf.Bytes()[8:]) != m.Digest() {
		t.Error("Digest is not the SHA-256 of the saved tables")
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Ready() {
		t.Fatal("deserialised model not ready")
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatal("deserialised model differs from the saved one")
	}

	b, err := synth.Generate(synth.Config{Seed: 96, Profile: synth.ProfileO2, NumFuncs: 20})
	if err != nil {
		t.Fatal(err)
	}
	g := superset.Build(b.Code, b.Base)
	sameBits(t, "ScoreAll", m2.ScoreAll(g, 8), m.ScoreAll(g, 8))
}

func TestWriteUnfinalized(t *testing.T) {
	m := NewModel()
	if _, err := m.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("expected error serialising unfinalized model")
	}
}

func TestReadModelErrors(t *testing.T) {
	tables := 8*numTok + 8*numTok*numTok
	cases := []struct{ name, in, want string }{
		{"empty", "", "header"},
		{"short header", "XXXX\x01\x00", "header"},
		{"bad magic", "XXXX\x02\x00\x00\x00", "magic"},
		{"bad version", "PDMD\xff\x00\x00\x00", "unsupported model version 255"},
		// A version-1 file is as long as a version-2 one, so only the
		// version tells them apart.
		{"version 1", "PDMD\x01\x00\x00\x00" + strings.Repeat("\x00", tables), "re-run cmd/train"},
		{"no tables", "PDMD\x02\x00\x00\x00", "unigram table"},
		{"truncated bigram table", "PDMD\x02\x00\x00\x00" + strings.Repeat("\x00", tables-3), "bigram table"},
	}
	for _, c := range cases {
		_, err := ReadModel(strings.NewReader(c.in))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadModel error = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
