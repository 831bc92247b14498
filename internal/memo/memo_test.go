package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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

// doRecover runs tab.Do and returns its value, or the panic value it
// raised.
func doRecover(tab *Table[string, int], key string, compute func() int) (v int, panicked any) {
	defer func() { panicked = recover() }()
	return tab.Do(key, compute), nil
}

// A compute that panics leaves nothing behind: its caller gets the panic,
// the next Do for the key computes afresh, and the failed compute counts
// as neither a hit nor a miss.
func TestTablePanickedComputeIsForgotten(t *testing.T) {
	tab := NewTable[string, int]()
	boom := errors.New("boom")
	if _, p := doRecover(tab, "k", func() int { panic(boom) }); p != boom {
		t.Fatalf("first Do panicked with %v, want %v", p, boom)
	}
	if st := tab.Stats(); st != (TableStats{}) {
		t.Fatalf("stats after a panicked compute = %+v, want none", st)
	}
	computes := 0
	for i := 0; i < 2; i++ {
		v, p := doRecover(tab, "k", func() int { computes++; return 42 })
		if p != nil || v != 42 {
			t.Fatalf("Do %d after the panic = %d, panic %v; want 42", i, v, p)
		}
	}
	if computes != 1 {
		t.Fatalf("computed %d times after the panic, want once", computes)
	}
	if st := tab.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// parkedInDo reports whether some goroutine is blocked on a lock or a
// wait inside Table.Do, as a request for a key another request is
// computing is.
func parkedInDo() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		state, _, _ := strings.Cut(g, "\n")
		if strings.Contains(g, "memo.(*Table[") &&
			(strings.Contains(state, "[semacquire") || strings.Contains(state, "[sync.")) {
			return true
		}
	}
	return false
}

// A request blocked on a compute that panics panics with the same value
// instead of returning a zero value, and neither counts.
func TestTableWaiterOfPanickedComputePanics(t *testing.T) {
	tab := NewTable[string, int]()
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	owner, waiter := make(chan any), make(chan any)
	go func() {
		_, p := doRecover(tab, "k", func() int {
			close(started)
			<-release
			panic(boom)
		})
		owner <- p
	}()
	<-started
	go func() {
		_, p := doRecover(tab, "k", func() int { t.Error("the waiter computed the key"); return 7 })
		waiter <- p
	}()
	for !parkedInDo() {
		runtime.Gosched()
	}
	close(release)
	if p := <-owner; p != boom {
		t.Fatalf("owner panicked with %v, want %v", p, boom)
	}
	if p := <-waiter; p != boom {
		t.Fatalf("waiter got panic %v, want %v", p, boom)
	}
	if st := tab.Stats(); st != (TableStats{}) {
		t.Fatalf("stats = %+v, want none", st)
	}
}

type testValue struct {
	Name string
	Xs   []float64
}

func (v testValue) MarshalBinary() ([]byte, error) {
	return AppendList(AppendString(nil, v.Name), v.Xs, AppendFloat64), nil
}

func (v *testValue) UnmarshalBinary(data []byte) error {
	d := NewDecoder(data)
	*v = testValue{Name: d.Str(), Xs: List(d, 8, d.Float64)}
	return d.Finish()
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

// TestDecoderRefusesMalformed: each way a value can be malformed stops
// the Decoder, which then reports it from Finish, and a well-formed
// value followed by a byte is refused too.
func TestDecoderRefusesMalformed(t *testing.T) {
	valid, _ := testValue{Name: "getpid", Xs: []float64{1.5}}.MarshalBinary()
	for name, data := range map[string][]byte{
		"empty":              nil,
		"varint cut short":   {0x80},
		"varint overflowing": bytes.Repeat([]byte{0xff}, 11),
		"varint too long":    {0x80, 0x00},
		"length past end":    {7, 'g', 'e', 't'},
		"count past end":     append(AppendString(nil, "getpid"), 2, 0, 0, 0, 0, 0, 0, 0, 0),
		"float cut short":    append(AppendString(nil, "getpid"), 1, 0, 0, 0),
		"trailing byte":      append(bytes.Clone(valid), 0),
	} {
		var v testValue
		if err := v.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: %x decoded as %+v", name, data, v)
		}
	}
	for _, b := range []byte{2, 0xff} {
		if d := NewDecoder([]byte{b}); d.Bool() || d.Finish() == nil {
			t.Errorf("bool byte %d accepted", b)
		}
	}
	if err := new(testValue).UnmarshalBinary(valid); err != nil {
		t.Fatalf("valid value refused: %v", err)
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
// an earlier layout, must read as a miss (counted stale), never as an
// error or a wrong value — the caller recomputes and the next Put
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
		{"wrong-key-echo", nil},     // filled below from a different key's entry
		{"flipped-value-byte", nil}, // filled below: one bit of the value changed
		{"memo1-layout", nil},       // filled below: the JSON value layout
		{"json-layout", nil},        // filled below: {"key": <base64>, "value": ...}
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
			case "flipped-value-byte":
				// 1.5 becomes -1.5: the entry still decodes, for the
				// right key, to a value that was never Put.
				content = bytes.Clone(full)
				content[len(content)-9] ^= 0x80 // the sign bit, in 1.5's last byte (little-endian)
			case "memo1-layout":
				vj := []byte(`{"Name":"good","Xs":[1.5,2.25]}`)
				content = fmt.Appendf(nil, "memo1 %x %d\n%s%s", sha256.Sum256(vj), len(key), key, vj)
			case "json-layout":
				vj := []byte(`{"Name":"good","Xs":[1.5,2.25]}`)
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
	if err := s.Put([]byte("a"), testValue{Name: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), testValue{Name: "2"}); err != nil {
		t.Fatal(err)
	}
	var v testValue
	if !s.Get([]byte("a"), &v) || v.Name != "1" {
		t.Fatalf("a = %+v, want 1", v)
	}
	if !s.Get([]byte("b"), &v) || v.Name != "2" {
		t.Fatalf("b = %+v, want 2", v)
	}
}

func TestOpenStoreRejectsEmptyDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") succeeded, want error")
	}
}
