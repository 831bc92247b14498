package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/memo"
	"repro/internal/stats"
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
		// Every Result the store holds must come back as it went in.
		if back := binaryRoundTrip(t, r); !reflect.DeepEqual(back, r) {
			t.Errorf("%s does not round-trip MarshalBinary", r.ID)
		}
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

// BenchmarkResultDecode is the decode inside a Get: A2's Result read
// back from its binary encoding, with no file or digest around it.
func BenchmarkResultDecode(b *testing.B) {
	_, _, res := storeBench(b)
	data, err := res.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := new(Result).UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// binaryRoundTrip encodes r and decodes it into a fresh Result.
func binaryRoundTrip(t testing.TB, r *Result) *Result {
	t.Helper()
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back := new(Result)
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return back
}

// fill sets v, and every field and element it reaches, to a value other
// than its zero value, counting the values in n so that no two agree. It
// fails t on a kind it has no case for: a field of a new kind must join
// the Result codec and this function together.
func fill(t testing.TB, v reflect.Value, path string, n *int) {
	*n++
	switch {
	case v.Type() == reflect.TypeOf((*stats.Sample)(nil)):
		s := new(stats.Sample)
		s.Add(float64(*n))
		s.Add(-1 / float64(*n))
		v.Set(reflect.ValueOf(s))
	case v.Kind() == reflect.String:
		v.SetString(fmt.Sprintf("%s#%d", path, *n))
	case v.Kind() == reflect.Int:
		v.SetInt(int64(*n))
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.Kind() == reflect.Float64:
		v.SetFloat(float64(*n) / 3)
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), n)
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).CanSet() {
				t.Fatalf("%s.%s is unexported; the codec cannot see it", path, v.Type().Field(i).Name)
			}
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name, n)
		}
	default:
		t.Fatalf("%s: no case for a %s; add one here and to the Result codec", path, v.Type())
	}
	if v.IsZero() {
		t.Fatalf("%s left zero", path)
	}
}

// filledResult is a Result with every field filled (see fill).
func filledResult(t testing.TB) *Result {
	r, n := new(Result), 0
	fill(t, reflect.ValueOf(r).Elem(), "Result", &n)
	return r
}

// TestResultCodecCoversEveryField: a Result with every field filled
// comes back from MarshalBinary and UnmarshalBinary deeply equal, so a
// field added to Result, Series or Expectation without a place in the
// codec fails here.
func TestResultCodecCoversEveryField(t *testing.T) {
	r := filledResult(t)
	if back := binaryRoundTrip(t, r); !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip of a filled Result:\n got %+v\nwant %+v", back, r)
	}
	r.Series[1].Samples[0] = nil
	if back := binaryRoundTrip(t, r); back.Series[1].Samples[0] != nil || !reflect.DeepEqual(back, r) {
		t.Fatal("a nil sample does not round-trip as nil")
	}
}

// specialFloats are the float64s decimal JSON cannot carry (NaN, with a
// payload, and the infinities: json.Marshal refuses them) or that a
// careless codec loses (-0 and the smallest subnormal).
var specialFloats = []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 5e-324}

// TestStoreKeepsSpecialFloats: special floats, in a series' X and in its
// samples, come back from the store with the bits they were Put with.
func TestStoreKeepsSpecialFloats(t *testing.T) {
	s := new(stats.Sample)
	for _, f := range specialFloats {
		s.Add(f)
	}
	put := &Result{ID: "X", Series: []Series{{Label: "special", X: specialFloats, Samples: []*stats.Sample{s}}}}
	store, err := memo.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("special-floats")
	if err := store.Put(key, put); err != nil {
		t.Fatal(err)
	}
	got := new(Result)
	if !store.Get(key, got) {
		t.Fatal("Get missed a stored Result")
	}
	want, _ := put.MarshalBinary() // floats written as their bits
	if back, _ := got.MarshalBinary(); !bytes.Equal(back, want) {
		t.Fatalf("special floats changed bits in the store:\n got %x\nwant %x", back, want)
	}
	if x := got.Series[0].X; math.Float64bits(x[0]) != 0x7ff8_0000_dead_beef || !math.Signbit(x[3]) {
		t.Fatalf("X = %v, want the NaN payload and -0 kept", x)
	}
}

// TestResultDecodeRefusesLongCounts: a count or length larger than the
// bytes left is refused before the decoder allocates for it, so the
// refusal allocates no more than decoding the same bytes cut off where
// the count starts.
func TestResultDecodeRefusesLongCounts(t *testing.T) {
	head := func() []byte { // ID, Title, Kind, YUnit, XLabel, LogX, Direction
		b := memo.AppendString(memo.AppendString(nil, "T2"), "getpid")
		b = memo.AppendString(memo.AppendString(binary.AppendVarint(b, 0), "µs"), "")
		return binary.AppendVarint(memo.AppendBool(b, false), 0)
	}
	series := func() []byte { return memo.AppendString(binary.AppendUvarint(head(), 1), "Linux") }
	samples := func() []byte { return binary.AppendUvarint(series(), 0) } // X is empty
	for name, prefix := range map[string][]byte{
		"ID length":          nil,
		"series count":       head(),
		"X count":            series(),
		"samples count":      samples(),
		"observations count": memo.AppendBool(binary.AppendUvarint(samples(), 1), true),
		"expectations count": binary.AppendUvarint(head(), 0),
		"notes count":        binary.AppendUvarint(binary.AppendUvarint(head(), 0), 0),
	} {
		long := append(binary.AppendUvarint(bytes.Clone(prefix), 65), make([]byte, 64)...)
		var r Result
		if r.UnmarshalBinary(long) == nil {
			t.Fatalf("%s: a count of 65 with 64 bytes left was accepted", name)
		}
		cut := testing.AllocsPerRun(20, func() { r.UnmarshalBinary(prefix) })
		if got := testing.AllocsPerRun(20, func() { r.UnmarshalBinary(long) }); got > cut {
			t.Errorf("%s: refusing a long count took %v allocs, cutting the input there %v", name, got, cut)
		}
	}
}

// FuzzResultDecode feeds arbitrary bytes to Result.UnmarshalBinary. It
// must never panic, and every input it accepts must re-encode to the
// same bytes. The seeds are a filled Result, one of special floats and
// the empty Result; the corpus in testdata/fuzz adds refusals: a count
// past the bytes left, a varint longer than its shortest form, a bool
// byte of 2 and a trailing byte.
func FuzzResultDecode(f *testing.F) {
	s := new(stats.Sample)
	for _, v := range specialFloats {
		s.Add(v)
	}
	for _, r := range []*Result{
		filledResult(f),
		{ID: "X", LogX: true, Series: []Series{{X: specialFloats, Samples: []*stats.Sample{s, nil}}}},
		{},
	} {
		data, err := r.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Result
		if r.UnmarshalBinary(data) != nil {
			return
		}
		back, err := r.MarshalBinary()
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("accepted %x re-encodes to %x (err %v)", data, back, err)
		}
	})
}
