package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/memo"
)

// memoSchemaDigests records, per memoSchema version, the SHA-256 of the
// seed-1 default suite's Results: the json.Marshal encodings of
// RunAll(DefaultConfig(), All()), concatenated in order. A store keyed
// by a schema replays exactly these bytes, so they may change only
// together with the schema.
var memoSchemaDigests = map[int]string{
	1: "72d701dff0e5c90b6a2077ef88e3aa5d2b4e5539c5bdc36cc4d791a692200200",
}

// TestMemoKeyPinned pins the seed-1 key material of one experiment. A
// key's SHA-256 names its store entry's file, so a key that moves by one
// byte strands every stored entry: it may change only together with
// memoSchema.
func TestMemoKeyPinned(t *testing.T) {
	sum := sha256.Sum256(memoKeys(DefaultConfig())("F2"))
	if got, want := hex.EncodeToString(sum[:]), "4cea3e0c3f6fa9e2e82e83d403a45b6195b09adb6f28ef9ecec0c6d2810d7f31"; got != want {
		t.Fatalf("memo key SHA-256 for F2 = %s, want %s", got, want)
	}
}

// TestMemoSchemaPinsResults fails when the stored Results change while
// memoSchema does not: a warm store would then replay stale results.
func TestMemoSchemaPinsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	results, _ := NewRunner(0).RunAll(DefaultConfig(), All())
	h := sha256.New()
	for _, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	got := hex.EncodeToString(h.Sum(nil))
	want, ok := memoSchemaDigests[memoSchema]
	if !ok {
		t.Fatalf("memoSchema %d has no recorded digest; record %s", memoSchema, got)
	}
	if got != want {
		t.Fatalf("seed-1 Results digest %s, recorded %s for memoSchema %d: bump memoSchema and record the new digest", got, want, memoSchema)
	}
}

// storeBench stores A2's seed-1 Result, the suite's largest store entry,
// in a fresh store and returns the store, the key and the Result.
func storeBench(b *testing.B) (*memo.Store, []byte, *Result) {
	e, ok := Lookup("A2")
	if !ok {
		b.Fatal("no experiment A2")
	}
	cfg := DefaultConfig()
	res := e.Run(cfg)
	store, err := memo.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key := memoKeys(cfg)(e.ID)
	if err := store.Put(key, res); err != nil {
		b.Fatal(err)
	}
	return store, key, res
}

// BenchmarkStorePut is the memo layer's write: one Result marshalled,
// framed and renamed into place over its existing entry.
func BenchmarkStorePut(b *testing.B) {
	store, key, res := storeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Put(key, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet is the memo layer's read, as a warm run makes it:
// one entry read, checked and decoded into a fresh Result.
func BenchmarkStoreGet(b *testing.B) {
	store, key, _ := storeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !store.Get(key, new(Result)) {
			b.Fatal("Get missed a stored Result")
		}
	}
}
