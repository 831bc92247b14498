package workload

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func newVFS(p *osprofile.Profile) (*sim.Clock, fs.VFS) {
	clock := &sim.Clock{}
	d := disk.MustNew(disk.HP3725(), sim.NewRNG(1))
	return clock, fs.MustNew(clock, d, p).AsVFS()
}

func TestParseBasics(t *testing.T) {
	tr, err := Parse("t", `
# a comment
mkdir /d
create /d/f 4K
read /d/f
append /d/f 1M
stat /d/f
list /d
unlink /d/f
sync
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != 8 {
		t.Fatalf("parsed %d ops, want 8", len(tr.Ops))
	}
	if tr.Ops[1].Bytes != 4<<10 {
		t.Errorf("4K parsed as %d", tr.Ops[1].Bytes)
	}
	if tr.Ops[3].Bytes != 1<<20 {
		t.Errorf("1M parsed as %d", tr.Ops[3].Bytes)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate /x",
		"mkdir",
		"create /f",
		"create /f 4X4",
		"repeat zero\nend",
		"repeat 3\nmkdir /d",
		"end",
		"repeat 0\nend",
	}
	for _, src := range cases {
		if _, err := Parse("bad", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestRepeatExpansion(t *testing.T) {
	_, v := newVFS(osprofile.Linux128())
	tr, err := Parse("t", `
mkdir /d
repeat 10
  create /d/f%i 1K
end
list /d
`)
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(v, tr)
	if st.Errors != 0 {
		t.Fatalf("replay had %d errors", st.Errors)
	}
	if st.Ops != 1+10+1 {
		t.Fatalf("ops = %d, want 12", st.Ops)
	}
	names, err := v.List("/d")
	if err != nil || len(names) != 10 {
		t.Fatalf("List = %v (%v), want 10 files", names, err)
	}
}

func TestNestedRepeats(t *testing.T) {
	_, v := newVFS(osprofile.Linux128())
	tr, err := Parse("t", `
mkdir /d
repeat 3
  mkdir /d/sub%i
  repeat 4
    create /d/sub%i/f%i 1K
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(v, tr)
	// Inner %i shadows the outer one: files land in the dir whose index
	// matches the inner loop only when it coincides; either way, 12
	// creates run. Errors occur when sub%i (inner idx) does not exist.
	if st.Ops != 1+3+12 {
		t.Fatalf("ops = %d, want 16", st.Ops)
	}
}

func TestReplayCountsBytes(t *testing.T) {
	_, v := newVFS(osprofile.FreeBSD205())
	tr, _ := Parse("t", "create /f 64K\nread /f\nappend /f 8K\n")
	st := Replay(v, tr)
	if st.BytesWritten != 64<<10+8<<10 {
		t.Errorf("BytesWritten = %d", st.BytesWritten)
	}
	if st.BytesRead != 64<<10 {
		t.Errorf("BytesRead = %d", st.BytesRead)
	}
}

func TestReplayToleratesErrors(t *testing.T) {
	_, v := newVFS(osprofile.Solaris24())
	tr, _ := Parse("t", "read /missing\nstat /missing\nunlink /missing\nlist /nodir\nmkdir /a/b/c\nappend /missing 1K\ncreate /nodir/f 1K\n")
	st := Replay(v, tr)
	if st.Errors != 7 {
		t.Fatalf("errors = %d, want 7", st.Errors)
	}
}

// A read past the replay's read budget fails unread, as a read of a
// missing file does: ten reads of a 2,000 MB file reach the budget, and
// the other 90 count as errors.
func TestReplayReadBudget(t *testing.T) {
	_, v := newVFS(osprofile.Linux128())
	tr, err := Parse("t", "create /f 2000M\nrepeat 100\n  read /f\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(v, tr)
	if st.Ops != 101 || st.BytesRead != 10*2000<<20 || st.Errors != 90 {
		t.Fatalf("%d ops, %d bytes read, %d errors; want 101, %d and 90", st.Ops, st.BytesRead, st.Errors, 10*2000<<20)
	}
}

func TestSyncOp(t *testing.T) {
	clock, v := newVFS(osprofile.Linux128())
	tr, _ := Parse("t", "create /f 2M\n")
	Replay(v, tr)
	before := clock.Now()
	tr2, _ := Parse("t", "sync\n")
	Replay(v, tr2)
	if clock.Now() == before {
		t.Fatal("sync of dirty data should cost time")
	}
}

func TestBuiltinsParse(t *testing.T) {
	for _, name := range BuiltinNames() {
		tr, err := Builtin(name)
		if err != nil {
			t.Errorf("builtin %s: %v", name, err)
			continue
		}
		if len(tr.Ops) == 0 {
			t.Errorf("builtin %s is empty", name)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Error("unknown builtin should error")
	}
}

func TestBuiltinsReplayCleanly(t *testing.T) {
	for _, name := range BuiltinNames() {
		for _, p := range osprofile.Paper() {
			_, v := newVFS(p)
			tr, _ := Builtin(name)
			st := Replay(v, tr)
			if st.Errors != 0 {
				t.Errorf("builtin %s on %s: %d errors", name, p, st.Errors)
			}
		}
	}
}

func TestMailspoolShowsMetadataGap(t *testing.T) {
	// The spool-churn trace is metadata-bound, so ext2 should crush FFS,
	// mirroring Figure 12 on a different workload.
	elapsed := func(p *osprofile.Profile) sim.Duration {
		clock, v := newVFS(p)
		tr, _ := Builtin("mailspool")
		start := clock.Now()
		Replay(v, tr)
		return clock.Now().Sub(start)
	}
	linux := elapsed(osprofile.Linux128())
	fbsd := elapsed(osprofile.FreeBSD205())
	if fbsd < 5*linux {
		t.Errorf("mailspool: FreeBSD %v not ≫ Linux %v", fbsd, linux)
	}
}

func TestReplayOverNFSMount(t *testing.T) {
	// Traces run over NFS too (the Syncer capability is simply absent).
	tr, _ := Builtin("tmpfiles")
	clock := &sim.Clock{}
	// Reuse the bench helper indirectly: build a mount by hand.
	// (A light copy of examples/nfslab's setup.)
	st := replayOverNFS(t, clock, tr)
	if st.Errors != 0 {
		t.Fatalf("NFS replay errors: %d", st.Errors)
	}
	if clock.Now() == 0 {
		t.Fatal("NFS replay cost no time")
	}
}

// TestParseBounds refuses each trace past a bound, naming the line that
// crosses it and the bound, and accepts the traces at the bounds.
func TestParseBounds(t *testing.T) {
	for _, tc := range []struct{ src, err string }{
		// 2^43 MB wraps to -2^63 bytes when the range is checked first.
		{"create /f 8796093022208M", "t:1: size 8796093022208M is past the disk's 2000 MB"},
		{"create /f 2001M", "t:1: size 2001M is past the disk's 2000 MB"},
		{"append /f 2048001K", "t:1: size 2048001K is past the disk's 2000 MB"},
		{"create /f 2097152001", "t:1: size 2097152001 is past the disk's 2000 MB"},
		{"mkdir /d\nrepeat 1000000\n  repeat 1000000\n    stat /d\n  end\nend\n", "t:4: the trace expands past 1000000 operations"},
		{"repeat 1000001\n  stat /\nend", "t:2: the trace expands past 1000000 operations"},
		{"stat /\nrepeat 1000000\n  stat /\nend", "t:3: the trace expands past 1000000 operations"},
		{"mkdir /d\nrepeat 100000\n  create /d/f%i 64M\nend\n", "t:3: the trace writes more than the disk's 2000 MB in all"},
		{"create /a 1000M\ncreate /b 1000M\nappend /a 1", "t:3: the trace writes more than the disk's 2000 MB in all"},
		{"repeat 1000000\n  repeat 1000000\n  end\nend", "t:3: repeat block holds no operation"},
		{"repeat 2\nend", "t:2: repeat block holds no operation"},
	} {
		_, err := Parse("t", tc.src)
		if err == nil || err.Error() != tc.err {
			t.Errorf("Parse(%q) = %v, want %q", tc.src, err, tc.err)
		}
	}
	for _, src := range []string{
		"create /f 2000M",
		"create /f 2048000K\nstat /f",
		"repeat 1000000\n  stat /\nend",
		"repeat 1000\n  repeat 1000\n    stat /\n  end\nend",
		"repeat 1000\n  create /f%i 2097152\nend",
		"repeat 2\n  repeat 3\n    stat /\n  end\nend",
	} {
		if _, err := Parse("t", src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

// TestExampleTracesParse keeps the shipped traces within the bounds.
func TestExampleTracesParse(t *testing.T) {
	paths, err := filepath.Glob("../../examples/traces/*.trace")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example traces: %v", err)
	}
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(path, string(text)); err != nil {
			t.Error(err)
		}
	}
}

func TestParseSizePlain(t *testing.T) {
	n, err := parseSize("12345")
	if err != nil || n != 12345 {
		t.Fatalf("parseSize plain: %v %v", n, err)
	}
	if _, err := parseSize("-3"); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestTraceRoundTripThroughStrings(t *testing.T) {
	// A trace with every construct parses identically when re-fed.
	src := strings.TrimSpace(builtins["compile"])
	a, err := Parse("a", src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("b", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("parse not stable")
	}
}

func TestRenameOp(t *testing.T) {
	_, v := newVFS(osprofile.Solaris24())
	tr, err := Parse("t", "create /a 4K\nrename /a /b\nread /b\nrename /missing /x\n")
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(v, tr)
	if st.Errors != 1 {
		t.Fatalf("errors = %d, want 1 (the missing rename)", st.Errors)
	}
	if _, err := v.Stat("/b"); err != nil {
		t.Fatal("rename did not happen through the trace")
	}
}

func TestRenameParseErrors(t *testing.T) {
	if _, err := Parse("t", "rename /a\n"); err == nil {
		t.Fatal("rename with one path accepted")
	}
}

func TestRenameWithLoopIndex(t *testing.T) {
	_, v := newVFS(osprofile.Linux128())
	tr, _ := Parse("t", "mkdir /d\nrepeat 5\ncreate /d/tmp%i 1K\nrename /d/tmp%i /d/final%i\nend\n")
	st := Replay(v, tr)
	if st.Errors != 0 {
		t.Fatalf("errors = %d", st.Errors)
	}
	names, _ := v.List("/d")
	if len(names) != 5 || names[0] != "final0" {
		t.Fatalf("List = %v", names)
	}
}
