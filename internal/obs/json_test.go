package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last").Add(2.5)
	reg.Counter("a.first").Add(3)
	reg.Counter("m.tiny").Add(1.0 / 3.0) // non-terminating binary fraction
	reg.Counter("m.big").Add(123456789012345)
	snap := reg.Snapshot()

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("round trip not bit-identical:\nin:  %v\nout: %v", snap, back)
	}
	// Marshal → Unmarshal → Marshal is byte-stable.
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("re-marshal changed bytes:\n%s\n%s", data, again)
	}
}

func TestSnapshotJSONSortedKeys(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz").Add(1)
	reg.Counter("aa").Add(2)
	reg.Counter("mm").Add(3)
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !(bytes.Index(data, []byte(`"aa"`)) < bytes.Index(data, []byte(`"mm"`)) &&
		bytes.Index(data, []byte(`"mm"`)) < bytes.Index(data, []byte(`"zz"`))) {
		t.Fatalf("counter keys not sorted: %s", s)
	}
}

func TestSnapshotJSONEmpty(t *testing.T) {
	var snap Snapshot
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"counters":{}}` {
		t.Fatalf("empty snapshot = %s", data)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 0 {
		t.Fatalf("empty round trip = %+v", back)
	}
}

func TestSnapshotJSONExtremeFloats(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("eps").Add(math.Nextafter(1, 2)) // 1 + 2^-52
	reg.Counter("sub").Add(5e-324)               // smallest denormal
	snap := reg.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Fatalf("extreme floats did not round-trip:\n%v\n%v", snap, back)
	}
}

func TestSnapshotJSONBadInput(t *testing.T) {
	var s Snapshot
	if err := json.Unmarshal([]byte(`{"counters":[1,2]}`), &s); err == nil {
		t.Fatal("expected error for malformed counters")
	}
}

// TestSnapshotJSONIgnoresDists holds the files written when snapshots
// also held distributions loadable: their "dists" member, empty as every
// committed baseline has it or not, is ignored, and the snapshot
// re-marshals as its counters alone.
func TestSnapshotJSONIgnoresDists(t *testing.T) {
	for _, in := range []string{
		`{"counters":{"b":2,"a":1},"dists":{}}`,
		`{"dists":{"lat.us":{"count":2,"sum":8.125,"min":0.125,"max":8}},"counters":{"a":1,"b":2}}`,
	} {
		var s Snapshot
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		want := Snapshot{Counters: []CounterValue{{"a", 1}, {"b", 2}}}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("%s decoded as %+v, want %+v", in, s, want)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != `{"counters":{"a":1,"b":2}}` {
			t.Fatalf("%s re-marshals as %s", in, out)
		}
	}
}
