package spool

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scanDir returns the spool files currently present in dir.
func scanDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "probedis-spool-") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestSpoolPaths sweeps bodies across the memory/spill boundary and
// checks sum, size, view identity and temp-file lifecycle on each side.
func TestSpoolPaths(t *testing.T) {
	dir := t.TempDir()
	const threshold = 4096
	for _, n := range []int{0, 1, threshold - 1, threshold, threshold + 1, 3 * threshold, 64*1024 + 17} {
		body := randBytes(int64(n), n)
		b, err := Spool(Config{Threshold: threshold, Dir: dir}, bytes.NewReader(body))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.Size() != int64(n) {
			t.Errorf("n=%d: Size = %d", n, b.Size())
		}
		if want := sha256.Sum256(body); b.Sum() != want {
			t.Errorf("n=%d: sum mismatch", n)
		}
		wantSpill := n > threshold
		if b.Spilled() != wantSpill {
			t.Errorf("n=%d: Spilled = %v, want %v", n, b.Spilled(), wantSpill)
		}
		if wantSpill && len(scanDir(t, dir)) == 0 {
			t.Errorf("n=%d: spilled but no spool file in dir", n)
		}
		v, err := b.View()
		if err != nil {
			t.Fatalf("n=%d: View: %v", n, err)
		}
		if !bytes.Equal(v, body) {
			t.Errorf("n=%d: view differs from body", n)
		}
		// Second View returns the same backing view.
		v2, err := b.View()
		if err != nil || (n > 0 && &v2[0] != &v[0]) {
			t.Errorf("n=%d: second View not memoized (err %v)", n, err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("n=%d: Close: %v", n, err)
		}
		if err := b.Close(); err != nil {
			t.Errorf("n=%d: double Close: %v", n, err)
		}
		if got := scanDir(t, dir); len(got) != 0 {
			t.Fatalf("n=%d: spool files leaked after Close: %v", n, got)
		}
	}
	if f, bts := LiveFiles(), LiveBytes(); f != 0 || bts != 0 {
		t.Errorf("live gauges not drained: files=%d bytes=%d", f, bts)
	}
}

// TestSpoolTooLargeFromCount proves the size limit fires from the
// spooled byte count with no Content-Length in sight, on both the
// memory and the spill path, and leaves no temp file behind.
func TestSpoolTooLargeFromCount(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		threshold int64
		max       int64
		n         int
	}{
		{"memory", 1 << 20, 1000, 1001},
		{"spill", 512, 4096, 8192},
		{"spill-at-limit-plus-one", 512, 4096, 4097},
	} {
		b, err := Spool(Config{Threshold: tc.threshold, Dir: dir, MaxBytes: tc.max},
			bytes.NewReader(randBytes(1, tc.n)))
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: err = %v, want ErrTooLarge", tc.name, err)
			if b != nil {
				b.Close()
			}
		}
		if got := scanDir(t, dir); len(got) != 0 {
			t.Fatalf("%s: temp files leaked on reject: %v", tc.name, got)
		}
	}
	// Exactly at the limit is admitted.
	b, err := Spool(Config{Threshold: 512, Dir: dir, MaxBytes: 4096}, bytes.NewReader(randBytes(2, 4096)))
	if err != nil {
		t.Fatalf("at-limit body rejected: %v", err)
	}
	b.Close()
	if f, bts := LiveFiles(), LiveBytes(); f != 0 || bts != 0 {
		t.Errorf("live gauges not drained: files=%d bytes=%d", f, bts)
	}
}

// errReader fails after serving n bytes.
type errReader struct {
	r    io.Reader
	left int
}

func (e *errReader) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, errors.New("injected read failure")
	}
	if len(p) > e.left {
		p = p[:e.left]
	}
	n, err := e.r.Read(p)
	e.left -= n
	return n, err
}

// TestSpoolReadErrorCleansUp: a body that dies mid-stream (client
// abort) must not leave a spool file or gauge residue.
func TestSpoolReadErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	for _, fail := range []int{100, 5000} { // before and after spill
		_, err := Spool(Config{Threshold: 1024, Dir: dir},
			&errReader{r: bytes.NewReader(randBytes(3, 1<<20)), left: fail})
		if err == nil || errors.Is(err, ErrTooLarge) {
			t.Fatalf("fail=%d: err = %v, want injected failure", fail, err)
		}
		if got := scanDir(t, dir); len(got) != 0 {
			t.Fatalf("fail=%d: temp files leaked: %v", fail, got)
		}
	}
	if f, bts := LiveFiles(), LiveBytes(); f != 0 || bts != 0 {
		t.Errorf("live gauges not drained: files=%d bytes=%d", f, bts)
	}
}

// TestSpoolGaugesTrackSpill pins the live gauges while a spilled body
// is open.
func TestSpoolGaugesTrackSpill(t *testing.T) {
	dir := t.TempDir()
	body := randBytes(4, 10000)
	b, err := Spool(Config{Threshold: 1024, Dir: dir}, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if LiveFiles() != 1 || LiveBytes() != int64(len(body)) {
		t.Errorf("live gauges while open: files=%d bytes=%d, want 1/%d",
			LiveFiles(), LiveBytes(), len(body))
	}
	b.Close()
	if LiveFiles() != 0 || LiveBytes() != 0 {
		t.Errorf("live gauges after Close: files=%d bytes=%d", LiveFiles(), LiveBytes())
	}
}

// TestAbandonRemovesFile: Abandon must remove the temp file (the leak
// scan cares about files) even though it leaks the mapping on purpose.
func TestAbandonRemovesFile(t *testing.T) {
	dir := t.TempDir()
	b, err := Spool(Config{Threshold: 64, Dir: dir}, bytes.NewReader(randBytes(5, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.View(); err != nil { // force the mapping into existence
		t.Fatal(err)
	}
	if err := b.Abandon(); err != nil {
		t.Fatal(err)
	}
	if got := scanDir(t, dir); len(got) != 0 {
		t.Fatalf("temp files leaked after Abandon: %v", got)
	}
	if LiveFiles() != 0 || LiveBytes() != 0 {
		t.Errorf("live gauges after Abandon: files=%d bytes=%d", LiveFiles(), LiveBytes())
	}
	if _, err := b.View(); err == nil {
		t.Error("View after Abandon should fail")
	}
}

// TestViewIsZeroCopyOnSpill: on platforms with mmap the spilled view
// must not be a heap copy. We can't assert allocation source directly,
// but we can assert that a 1 MiB spill keeps no in-memory buffer, before
// or after View: the body lives only in the spool file and its mapping.
func TestViewIsZeroCopyOnSpill(t *testing.T) {
	dir := t.TempDir()
	body := randBytes(6, 1<<20)
	b, err := Spool(Config{Threshold: 4096, Dir: dir}, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.mem != nil {
		t.Fatalf("spilled body keeps a %d-byte in-memory buffer", cap(b.mem))
	}
	v, err := b.View()
	if err != nil {
		t.Fatal(err)
	}
	if b.mem != nil {
		t.Fatalf("View of a spilled body allocated a %d-byte in-memory buffer", cap(b.mem))
	}
	if !bytes.Equal(v, body) {
		t.Error("view content mismatch")
	}
}
