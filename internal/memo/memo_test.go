package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestTableSingleFlight(t *testing.T) {
	tab := NewTable[int, int]()
	var computes int
	got := tab.Do(7, func() int { computes++; return 42 })
	if got != 42 || computes != 1 {
		t.Fatalf("first Do = %d (computes %d), want 42 computed once", got, computes)
	}
	got = tab.Do(7, func() int { computes++; return 99 })
	if got != 42 || computes != 1 {
		t.Fatalf("second Do = %d (computes %d), want memoized 42", got, computes)
	}
	st := tab.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestTableConcurrentComputesOnce(t *testing.T) {
	tab := NewTable[string, int]()
	var mu sync.Mutex
	computes := 0
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := tab.Do("k", func() int {
				mu.Lock()
				computes++
				mu.Unlock()
				return 5
			})
			if v != 5 {
				t.Errorf("Do = %d, want 5", v)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want exactly once", computes)
	}
	st := tab.Stats()
	if st.Misses != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 31 hits 1 miss", st)
	}
}

type testValue struct {
	Name string    `json:"name"`
	Xs   []float64 `json:"xs"`
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(`{"id":"T2","seed":1}`)
	in := testValue{Name: "getpid", Xs: []float64{1.5, 2.25, 0.1}}
	var out testValue
	if s.Get(key, &out) {
		t.Fatal("Get hit on empty store")
	}
	if err := s.Put(key, in); err != nil {
		t.Fatal(err)
	}
	if !s.Get(key, &out) {
		t.Fatal("Get missed a just-Put key")
	}
	if out.Name != in.Name || len(out.Xs) != 3 || out.Xs[1] != 2.25 {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stale != 0 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss 0 stale 1 put", st)
	}
}

// entryPath mirrors Store.path for white-box corruption tests.
func entryPath(dir string, key []byte) string {
	sum := sha256.Sum256(key)
	h := hex.EncodeToString(sum[:])
	return filepath.Join(dir, h[:2], h[2:]+".json")
}

// TestStoreCorruptionRecomputes is the degradation contract: a
// truncated, garbage, key-mismatched or value-altered entry, or one in
// the earlier JSON layout, must read as a miss (counted stale), never as
// an error or a wrong value — the caller recomputes and the next Put
// rewrites the entry at the same path.
func TestStoreCorruptionRecomputes(t *testing.T) {
	key := []byte("the-key")
	good := testValue{Name: "good", Xs: []float64{1.5, 2.25}}
	corruptions := []struct {
		name    string
		content []byte
	}{
		{"truncated", nil}, // filled below from a valid entry's prefix
		{"garbage", []byte("not json at all \x00\xff")},
		{"empty", []byte{}},
		{"wrong-key-echo", nil}, // filled below from a different key's entry
		{"flipped-digit", nil},  // filled below: one digit of the value changed
		{"json-layout", nil},    // filled below: {"key": <base64>, "value": ...}
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, good); err != nil {
				t.Fatal(err)
			}
			path := entryPath(dir, key)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			content := tc.content
			switch tc.name {
			case "truncated":
				content = full[:len(full)/2]
			case "flipped-digit":
				// 1.5 becomes 2.5: still a well-formed entry for the
				// right key, holding a value that was never Put.
				i := bytes.Index(full, []byte(`"xs":[1.5`))
				if i < 0 {
					t.Fatalf("no first sample in entry %q", full)
				}
				content = bytes.Clone(full)
				content[i+len(`"xs":[`)] = '2'
			case "json-layout":
				vj, err := json.Marshal(good)
				if err != nil {
					t.Fatal(err)
				}
				content, err = json.Marshal(map[string]any{"key": key, "value": json.RawMessage(vj)})
				if err != nil {
					t.Fatal(err)
				}
			case "wrong-key-echo":
				// A valid entry stored under a different key, copied onto
				// this key's path — the echo check must reject it.
				if err := s.Put([]byte("other-key"), testValue{Name: "evil"}); err != nil {
					t.Fatal(err)
				}
				var err error
				content, err = os.ReadFile(entryPath(dir, []byte("other-key")))
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Fatal(err)
			}
			var out testValue
			if s.Get(key, &out) {
				t.Fatalf("Get hit on a %s entry (got %+v)", tc.name, out)
			}
			if st := s.Stats(); st.Stale != 1 {
				t.Fatalf("stats = %+v, want exactly 1 stale", st)
			}
			// Recompute-and-repair: a fresh Put rewrites the bad entry in
			// place, and it serves hits again.
			if err := s.Put(key, testValue{Name: "repaired"}); err != nil {
				t.Fatal(err)
			}
			if now, err := os.ReadFile(path); err != nil || bytes.Equal(now, content) {
				t.Fatalf("Put did not rewrite %s (err %v)", path, err)
			}
			if !s.Get(key, &out) || out.Name != "repaired" {
				t.Fatalf("repair failed: hit=%v out=%+v", s.Get(key, &out), out)
			}
		})
	}
}

func TestStoreDistinctKeysDistinctEntries(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), 2); err != nil {
		t.Fatal(err)
	}
	var v int
	if !s.Get([]byte("a"), &v) || v != 1 {
		t.Fatalf("a = %d, want 1", v)
	}
	if !s.Get([]byte("b"), &v) || v != 2 {
		t.Fatalf("b = %d, want 2", v)
	}
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") succeeded, want error")
	}
}
