// Package store is the persistent content-addressed result store
// behind the disasmd in-memory result cache: a directory of serialized
// pipeline results keyed by the fingerprint of the pipeline that made
// them and the SHA-256 of the input image, shared by every replica
// pointed at the same root, so replicas compute each unique image once
// between them, and replicas with different fingerprints (another model,
// another pipeline version) keep their results side by side.
//
// Layout:
//
//	<root>/sha256/<fp>/ab/abcdef...  one entry per key (fp = hex SHA-256
//	                                 of the fingerprint, ab = first key
//	                                 byte)
//	<root>/tmp/                      in-progress writes (crash orphans
//	                                 are swept at Open)
//	<root>/quarantine/               entries that failed validation,
//	                                 kept for inspection, never served
//
// Entry format (little-endian):
//
//	magic   [8]byte  "PBDSTOR1"
//	version uint32   entryVersion
//	fpLen   uint32   fingerprint length
//	fp      []byte   pipeline, model and options fingerprint (see serve)
//	bodyLen uint64
//	body    []byte
//	sum     [32]byte SHA-256 over everything before it
//
// Every read validates the trailing checksum, so torn or partial
// writes — a publisher killed mid-write, a truncated disk, a bit flip
// at rest — are detected and quarantined, never served. Publishes are
// atomic: entries are staged under tmp/ and moved into place with one
// rename, so a reader observes either the old complete entry or the
// new complete entry, nothing in between. An intact entry under the
// store's own fingerprint directory whose header names another format
// version or fingerprint is not corruption but staleness: it is deleted
// on sight and at Open. Entries under other fingerprints belong to other
// replicas; a store never reads, validates or deletes them, except by
// the byte budget.
//
// The store is bounded by payload bytes over the whole root, every
// fingerprint's entries together: when a Put pushes the total over
// budget, the least-recently-used entries (by access time, which Get
// maintains by touching mtime) are swept until it fits, so the entries
// of a fingerprint no replica uses any more age out. A body that cannot
// fit even in an empty store returns ErrFull — the serving layer maps
// that to 507.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrFull marks a body too large for the store's byte budget even
	// after evicting everything else.
	ErrFull = errors.New("store: entry exceeds store byte budget")
)

var entryMagic = [8]byte{'P', 'B', 'D', 'S', 'T', 'O', 'R', '1'}

// entryVersion is the on-disk entry format version. Entries with any
// other version are treated as stale and swept.
const entryVersion = 1

// DefaultMaxBytes bounds the store when Open is given maxBytes <= 0.
const DefaultMaxBytes = 1 << 30

// headerLen is the fixed part of the entry header before the
// fingerprint.
const headerLen = 8 + 4 + 4

// Store is one process's handle on a shared result-store root.
// Multiple Stores (in-process or across processes) may share a root:
// publishes are atomic renames and byte accounting is re-derived from
// the directory when the budget is threatened, so replicas converge on
// what the filesystem holds rather than on private counters.
type Store struct {
	root     string
	maxBytes int64
	fp       string
	fpDir    string // this fingerprint's entry directory

	mu    sync.Mutex
	bytes int64 // approximate resident payload bytes (entry file sizes)
	count int64 // approximate resident entry count

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	corruptions atomic.Int64

	// rename publishes a staged entry; tests inject failures here to
	// simulate a publisher dying between staging and publish.
	rename func(oldpath, newpath string) error
}

// Open prepares root (creating it if needed), sweeps crash orphans out
// of tmp/, drops stale entries from fp's directory, quarantines corrupt
// ones there and derives the resident byte count of the whole root.
func Open(root string, maxBytes int64, fp string) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	digest := sha256.Sum256([]byte(fp))
	s := &Store{root: root, maxBytes: maxBytes, fp: fp, rename: os.Rename}
	s.fpDir = filepath.Join(s.entriesDir(), hex.EncodeToString(digest[:]))
	for _, d := range []string{s.fpDir, s.tmpDir(), s.quarantineDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A publisher killed between staging and rename leaves its staged
	// file in tmp/; nothing references it, so it is garbage.
	if ents, err := os.ReadDir(s.tmpDir()); err == nil {
		for _, e := range ents {
			os.Remove(filepath.Join(s.tmpDir(), e.Name()))
		}
	}
	bytes, count, _ := s.walk(true)
	s.bytes, s.count = bytes, count
	return s, nil
}

func (s *Store) entriesDir() string    { return filepath.Join(s.root, "sha256") }
func (s *Store) tmpDir() string        { return filepath.Join(s.root, "tmp") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

func (s *Store) entryPath(key [32]byte) string {
	hexKey := hex.EncodeToString(key[:])
	return filepath.Join(s.fpDir, hexKey[:2], hexKey)
}

// SetRenameHook substitutes the publish rename — test-only, simulating
// a publisher that dies between staging an entry and making it visible.
func (s *Store) SetRenameHook(f func(oldpath, newpath string) error) {
	if f == nil {
		f = os.Rename
	}
	s.rename = f
}

// Get returns the stored body for key under the store's fingerprint, or
// ok=false on miss. Corrupt entries (bad magic, short file, checksum
// mismatch) are quarantined and reported as a miss; entries whose header
// names a different format version or fingerprint are stale — deleted
// and reported as a miss.
func (s *Store) Get(key [32]byte) (body []byte, ok bool) {
	path := s.entryPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	body, verdict := decodeEntry(raw, s.fp)
	switch verdict {
	case entryOK:
		// Touch the access time so the LRU sweep sees this entry as
		// recently used. Best-effort: a failed touch only ages the entry.
		now := time.Now()
		os.Chtimes(path, now, now)
		s.hits.Add(1)
		return body, true
	case entryStale:
		s.dropEntry(path, int64(len(raw)))
		s.misses.Add(1)
		return nil, false
	default: // entryCorrupt
		s.quarantine(path, int64(len(raw)))
		s.corruptions.Add(1)
		s.misses.Add(1)
		return nil, false
	}
}

// Put publishes body under key: staged in tmp/, checksummed, fsynced
// and renamed into place atomically. Concurrent publishers for the
// same key converge on the last rename — both staged files are
// complete and checksummed, so whichever wins, readers see one intact
// entry. Returns ErrFull when body can never fit the byte budget.
func (s *Store) Put(key [32]byte, body []byte) error {
	enc := encodeEntry(body, s.fp)
	if int64(len(enc)) > s.maxBytes {
		return ErrFull
	}
	f, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return fmt.Errorf("store: staging entry: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(enc); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: staging entry: %w", err)
	}
	// fsync before rename: the entry must be durable before it becomes
	// visible, or a crash could surface a torn entry at the final path.
	// (The checksum would still catch it; this keeps the common case
	// clean.)
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing entry: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: staging entry: %w", err)
	}
	final := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	prev, _ := os.Stat(final) // for replace accounting
	if err := s.rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing entry: %w", err)
	}

	s.mu.Lock()
	s.bytes += int64(len(enc))
	s.count++
	if prev != nil {
		s.bytes -= prev.Size()
		s.count--
	}
	if s.bytes > s.maxBytes {
		s.sweepLocked(key)
	}
	s.mu.Unlock()
	return nil
}

// dropEntry removes a stale entry and adjusts accounting.
func (s *Store) dropEntry(path string, size int64) {
	if os.Remove(path) == nil {
		s.mu.Lock()
		s.bytes -= size
		s.count--
		s.mu.Unlock()
	}
}

// quarantine moves a corrupt entry aside (never served again, kept for
// inspection) and adjusts accounting. Quarantined bytes do not count
// against the store budget.
func (s *Store) quarantine(path string, size int64) {
	dst := filepath.Join(s.quarantineDir(),
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if os.Rename(path, dst) != nil {
		// Rename across the same filesystem should not fail; if it does,
		// deleting is still safer than re-serving a corrupt entry.
		if os.Remove(path) != nil {
			return
		}
	}
	s.mu.Lock()
	s.bytes -= size
	s.count--
	s.mu.Unlock()
}

type walkedEntry struct {
	path  string
	size  int64
	atime time.Time
}

// walk scans the entries directory of every fingerprint: total size,
// count, and (when sweepStale) deletes the entries of this store's
// fingerprint directory whose header carries a different fingerprint or
// version, and quarantines its corrupt ones. Orphan files that do not
// look like entries are left alone.
func (s *Store) walk(sweepStale bool) (bytes, count int64, entries []walkedEntry) {
	own := s.fpDir + string(filepath.Separator)
	filepath.WalkDir(s.entriesDir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		if sweepStale && strings.HasPrefix(path, own) {
			switch checkHeader(path, s.fp) {
			case entryStale:
				os.Remove(path)
				return nil
			case entryCorrupt:
				s.quarantineRaw(path)
				s.corruptions.Add(1)
				return nil
			}
		}
		bytes += info.Size()
		count++
		entries = append(entries, walkedEntry{path: path, size: info.Size(), atime: info.ModTime()})
		return nil
	})
	return bytes, count, entries
}

// quarantineRaw moves a corrupt entry aside without touching the
// accounting counters (used during Open, before accounting exists).
func (s *Store) quarantineRaw(path string) {
	dst := filepath.Join(s.quarantineDir(),
		fmt.Sprintf("%s.%d", filepath.Base(path), time.Now().UnixNano()))
	if os.Rename(path, dst) != nil {
		os.Remove(path)
	}
}

// sweepLocked re-derives the resident set from disk (authoritative
// across replicas sharing the root) and evicts least-recently-accessed
// entries until the byte budget holds. keep is never evicted — it is
// the entry just published.
func (s *Store) sweepLocked(keep [32]byte) {
	bytes, count, entries := s.walk(false)
	s.bytes, s.count = bytes, count
	if s.bytes <= s.maxBytes {
		return
	}
	keepPath := s.entryPath(keep)
	sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
	for _, e := range entries {
		if s.bytes <= s.maxBytes {
			break
		}
		if e.path == keepPath {
			continue
		}
		if os.Remove(e.path) == nil {
			s.bytes -= e.size
			s.count--
			s.evictions.Add(1)
		}
	}
}

// Counters and gauges (CounterFunc/Gauge feeds for the serving layer).

// HitCount returns entries served from disk.
func (s *Store) HitCount() int64 { return s.hits.Load() }

// MissCount returns lookups that found no usable entry.
func (s *Store) MissCount() int64 { return s.misses.Load() }

// EvictionCount returns entries evicted by the byte-budget sweep.
func (s *Store) EvictionCount() int64 { return s.evictions.Load() }

// CorruptionCount returns entries quarantined after failing validation.
func (s *Store) CorruptionCount() int64 { return s.corruptions.Load() }

// EntryCount returns the approximate resident entry count.
func (s *Store) EntryCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// ByteCount returns the approximate resident entry bytes.
func (s *Store) ByteCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// QuarantineDir returns the directory holding quarantined entries (the
// CI job uploads it as an artifact when fault-injection tests fail).
func (s *Store) QuarantineDir() string { return s.quarantineDir() }

// entry validation verdicts.
type verdict int

const (
	entryOK verdict = iota
	entryStale
	entryCorrupt
)

// encodeEntry serializes body with the checksummed header.
func encodeEntry(body []byte, fp string) []byte {
	n := headerLen + len(fp) + 8 + len(body) + sha256.Size
	out := make([]byte, 0, n)
	out = append(out, entryMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, entryVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(fp)))
	out = append(out, fp...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = append(out, body...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// decodeEntry validates raw and returns the body. The checksum is
// checked first: any structural surprise in a checksum-valid entry
// cannot happen, so structural failures beyond the checksum are
// corruption, and only an intact entry can be judged stale.
func decodeEntry(raw []byte, fp string) ([]byte, verdict) {
	if len(raw) < headerLen+8+sha256.Size {
		return nil, entryCorrupt
	}
	payload, tail := raw[:len(raw)-sha256.Size], raw[len(raw)-sha256.Size:]
	if sum := sha256.Sum256(payload); string(sum[:]) != string(tail) {
		return nil, entryCorrupt
	}
	if [8]byte(payload[:8]) != entryMagic {
		return nil, entryCorrupt
	}
	version := binary.LittleEndian.Uint32(payload[8:])
	fpLen := int(binary.LittleEndian.Uint32(payload[12:]))
	if headerLen+fpLen+8 > len(payload) {
		return nil, entryCorrupt
	}
	gotFP := string(payload[headerLen : headerLen+fpLen])
	bodyLen := binary.LittleEndian.Uint64(payload[headerLen+fpLen:])
	bodyStart := headerLen + fpLen + 8
	if uint64(len(payload)-bodyStart) != bodyLen {
		return nil, entryCorrupt
	}
	if version != entryVersion || gotFP != fp {
		return nil, entryStale
	}
	return payload[bodyStart:], entryOK
}

// checkHeader classifies the entry at path by reading it fully (entries
// are result-sized, small relative to images). Used by the Open-time
// stale sweep of the store's own fingerprint directory.
func checkHeader(path, fp string) verdict {
	raw, err := os.ReadFile(path)
	if err != nil {
		return entryCorrupt
	}
	_, v := decodeEntry(raw, fp)
	return v
}
