package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Store is a persistent content-addressed memo: values live on disk under
// the SHA-256 of their canonical key material, so an unchanged
// computation re-run from a fresh process finds its result instead of
// re-simulating. The caller owns the key discipline — the key bytes must
// encode everything the value depends on (schema version, configuration,
// seeds, fault plans); the store only promises that a returned value was
// stored under byte-identical key material and is the value stored.
//
// Every entry file echoes its full key and carries the SHA-256 of its
// value (see entryHead), so a hash collision, a truncated write, a
// changed byte, an entry in another layout or stray garbage in the
// directory can never surface as a wrong value: any mismatch is counted
// as stale and reported as a miss, and the caller recomputes. A Store is
// safe for concurrent use; concurrent Puts of the same key are
// idempotent (last atomic rename wins, all writes carry the same value).
type Store struct {
	dir    string
	hits   atomic.Uint64
	misses atomic.Uint64
	stale  atomic.Uint64
	puts   atomic.Uint64
}

// entryTag opens every entry's header line and names its layout.
const entryTag = "memo1"

// entryHead is what precedes a value's JSON in its entry under key: a
// header line — entryTag, the hex SHA-256 of the value bytes and the
// key's length, space-separated — then the raw key bytes. Get checks the
// key echo and the value's digest with one comparison of the head, then
// decodes the value once; nothing is escaped or nested.
func entryHead(key, value []byte) []byte {
	return append(fmt.Appendf(nil, "%s %x %d\n", entryTag, sha256.Sum256(value), len(key)), key...)
}

// entryValue returns the value an entry holds for key, and false unless
// data is an entry framed for key (see entryHead) whose value matches
// its digest.
func entryValue(data, key []byte) ([]byte, bool) {
	_, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || len(rest) < len(key) {
		return nil, false
	}
	value := rest[len(key):]
	return value, bytes.Equal(data[:len(data)-len(value)], entryHead(key, value))
}

// OpenStore opens (creating if needed) a persistent store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("memo: store directory must be non-empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memo: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path maps key material to its entry file: <dir>/<2 hex>/<62 hex>.json,
// the leading byte fanning entries out across 256 subdirectories. The
// .json name is kept from the JSON entry layout, so the first Put after
// an upgrade overwrites an entry an older build wrote instead of
// stranding it beside the new one.
func (s *Store) path(key []byte) string {
	sum := sha256.Sum256(key)
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:]+".json")
}

// Get looks the key up and, on a hit, unmarshals the stored value into
// value (a pointer). It reports whether the value was filled. An absent
// entry is a miss; an unreadable entry, one in another layout, or one
// whose key echo, digest or value JSON does not check out is counted
// stale as well as missed — the caller recomputes either way and the
// next Put rewrites the entry in place.
func (s *Store) Get(key []byte, value any) bool {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	if v, ok := entryValue(data, key); !ok || json.Unmarshal(v, value) != nil {
		s.stale.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// Put stores value under the key, atomically: the entry is written to a
// temporary file in the same directory and renamed into place, so a
// reader never observes a half-written entry and a crash leaves at worst
// a stray temp file (ignored by Get, cleaned by the next Put's rename
// pattern being per-process unique).
func (s *Store) Put(key []byte, value any) error {
	vj, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("memo: marshal value: %w", err)
	}
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".memo-*")
	if err != nil {
		return fmt.Errorf("memo: %w", err)
	}
	// The value is written after its head rather than copied into one
	// buffer with it.
	_, err = tmp.Write(entryHead(key, vj))
	if err == nil {
		_, err = tmp.Write(vj)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("memo: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("memo: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("memo: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// StoreStats reports the store's effectiveness counters.
type StoreStats struct {
	// Hits counts keys served from disk.
	Hits uint64
	// Misses counts keys that had to be computed (including stale ones).
	Misses uint64
	// Stale counts entries rejected as corrupt, truncated, in another
	// layout, key-mismatched or digest-mismatched; each is also a miss.
	Stale uint64
	// Puts counts entries written.
	Puts uint64
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Stale:  s.stale.Load(),
		Puts:   s.puts.Load(),
	}
}
