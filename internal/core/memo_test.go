package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// memoSchemaDigests records, per memoSchema version, the SHA-256 of the
// seed-1 default suite's Results: the json.Marshal encodings of
// RunAll(DefaultConfig(), All()), concatenated in order. A store keyed
// by a schema replays exactly these bytes, so they may change only
// together with the schema.
var memoSchemaDigests = map[int]string{
	1: "72d701dff0e5c90b6a2077ef88e3aa5d2b4e5539c5bdc36cc4d791a692200200",
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
