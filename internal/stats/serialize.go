package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Serialization format, version 2: a finalized model's two scoring
// tables as little-endian float64, the same bits scoring reads, so a
// loaded model scores exactly as the model that was saved:
//
//	magic "PDMD" | version u32 | uniDiff [numTok]f64 |
//	biDiff [numTok*numTok]f64  (row-major by first token)
//
// 8,396,808 bytes in all. Only finalized models serialise; the training
// counts are not kept. Version 1 stored both models' log-probability
// tables as float32, which rounds the scores; it is rejected, and
// cmd/train regenerates the file.
const (
	modelMagic   = "PDMD"
	modelVersion = 2
)

// WriteTo serialises a finalized model. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	if !m.Ready() {
		return 0, fmt.Errorf("stats: cannot serialise an unfinalized model")
	}
	buf := make([]byte, 0, 8+8*(numTok+len(m.biDiff)))
	buf = binary.LittleEndian.AppendUint32(append(buf, modelMagic...), modelVersion)
	for _, t := range [][]float64{m.uniDiff[:], m.biDiff} {
		for _, f := range t {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
	}
	n, err := w.Write(buf)
	return int64(n), err
}

// ReadModel deserialises a model written by WriteTo.
func ReadModel(r io.Reader) (*Model, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("stats: reading model header: %w", err)
	}
	if string(head[:4]) != modelMagic {
		return nil, fmt.Errorf("stats: bad model magic %q", head[:4])
	}
	switch v := binary.LittleEndian.Uint32(head[4:]); v {
	case modelVersion:
	case 1:
		return nil, fmt.Errorf("stats: model file version 1 stores rounded float32 tables; re-run cmd/train to write version %d", modelVersion)
	default:
		return nil, fmt.Errorf("stats: unsupported model version %d", v)
	}
	m := &Model{biDiff: make([]float64, numTok*numTok)}
	if err := binary.Read(r, binary.LittleEndian, m.uniDiff[:]); err != nil {
		return nil, fmt.Errorf("stats: reading unigram table: %w", err)
	}
	if err := binary.Read(r, binary.LittleEndian, m.biDiff); err != nil {
		return nil, fmt.Errorf("stats: reading bigram table: %w", err)
	}
	return m, nil
}

// Digest returns the SHA-256 of the model's score tables, the bits of
// uniDiff then biDiff as little-endian float64 (the file's body after
// its header): two models score every offset alike when their digests
// match. The tables are hashed a few KiB at a time, not copied whole.
func (m *Model) Digest() [sha256.Size]byte {
	h := sha256.New()
	var buf [4 << 10]byte
	for _, t := range [][]float64{m.uniDiff[:], m.biDiff} {
		for len(t) > 0 {
			n := min(len(t), len(buf)/8)
			for i, f := range t[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
			}
			h.Write(buf[:8*n])
			t = t[n:]
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
