package memo

import (
	"os"
	"reflect"
	"testing"
)

// FuzzStoreEntry overwrites a stored entry's file with arbitrary bytes.
// Get must then either count one stale miss or return exactly the value
// that was Put — never panic, and never return another value. The seed
// corpus in testdata/fuzz holds the entry Put writes, a truncation of
// it, the entry with one byte of its value changed, and the entry as the
// memo1 layout (JSON values) and the earlier {"key": <base64>, "value":
// ...} layout wrote it.
func FuzzStoreEntry(f *testing.F) {
	key := []byte(`{"id":"F2","seed":1}`)
	put := testValue{Name: "getpid", Xs: []float64{1.5, 2.25, 0.1}}
	s, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(key, put); err != nil {
		f.Fatal(err)
	}
	path := s.path(key)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		var got testValue
		hit := s.Get(key, &got)
		after := s.Stats()
		if !hit {
			if after.Stale-before.Stale != 1 || after.Misses-before.Misses != 1 {
				t.Fatalf("Get missed on %q, stats %+v then %+v: want one stale miss", data, before, after)
			}
			return
		}
		if !reflect.DeepEqual(got, put) {
			t.Fatalf("Get on %q returned %+v, want %+v", data, got, put)
		}
	})
}
