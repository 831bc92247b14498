package cli

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memoArgs is the fixed command both halves of the cold/warm comparisons
// run: a cross-section of exhibit kinds (table, mem-model figure,
// ablation) at a reduced run count.
var memoArgs = []string{"-runs", "3", "run", "T2", "F3", "A1", "-stats"}

// TestMemoColdWarmByteIdentical is the persistent-memo contract end to
// end: a cold run fills the store, a warm run is served from it with
// every experiment a hit, and the two renders — plus a storeless run —
// are byte-identical.
func TestMemoColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	plain, plainOut, _, _ := testApp()
	if code := plain.Execute(memoArgs); code != 0 {
		t.Fatalf("plain exit = %d", code)
	}
	cold, coldOut, coldErr, _ := testApp()
	if code := cold.Execute(append([]string{"-memo", dir}, memoArgs...)); code != 0 {
		t.Fatalf("cold exit = %d: %s", code, coldErr.String())
	}
	warm, warmOut, warmErr, _ := testApp()
	if code := warm.Execute(append([]string{"-memo", dir}, memoArgs...)); code != 0 {
		t.Fatalf("warm exit = %d: %s", code, warmErr.String())
	}
	if coldOut.String() != plainOut.String() {
		t.Fatal("attaching -memo changed the cold run's stdout")
	}
	if warmOut.String() != coldOut.String() {
		t.Fatal("warm (memoized) stdout differs from cold stdout")
	}
	if !strings.Contains(coldErr.String(), "memo store: 0 hits, 3 misses") {
		t.Errorf("cold stats missing store misses:\n%s", coldErr.String())
	}
	if !strings.Contains(warmErr.String(), "memo store: 3 hits, 0 misses") {
		t.Errorf("warm stats missing store hits:\n%s", warmErr.String())
	}
}

// TestMemoKeyedBySeed: a different seed must miss a store warmed under
// the default seed — the key carries every result-determining input.
func TestMemoKeyedBySeed(t *testing.T) {
	dir := t.TempDir()
	warmup, _, _, _ := testApp()
	if code := warmup.Execute(append([]string{"-memo", dir}, memoArgs...)); code != 0 {
		t.Fatalf("warmup exit = %d", code)
	}
	other, _, otherErr, _ := testApp()
	if code := other.Execute(append([]string{"-memo", dir, "-seed", "2"}, memoArgs...)); code != 0 {
		t.Fatalf("seed-2 exit = %d", code)
	}
	if !strings.Contains(otherErr.String(), "memo store: 0 hits, 3 misses") {
		t.Errorf("seed change did not miss the store:\n%s", otherErr.String())
	}
}

// TestMemoCorruptEntryRecomputes: flipping one stored entry to garbage
// must degrade to a recompute (reported stale) with byte-identical
// output, never an error.
func TestMemoCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	cold, coldOut, _, _ := testApp()
	if code := cold.Execute(append([]string{"-memo", dir}, memoArgs...)); code != 0 {
		t.Fatalf("cold exit = %d", code)
	}
	var victim string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return err
	})
	if err != nil || victim == "" {
		t.Fatalf("no store entry found (err %v)", err)
	}
	if err := os.WriteFile(victim, []byte("garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}
	warm, warmOut, warmErr, _ := testApp()
	if code := warm.Execute(append([]string{"-memo", dir}, memoArgs...)); code != 0 {
		t.Fatalf("warm exit = %d: %s", code, warmErr.String())
	}
	if warmOut.String() != coldOut.String() {
		t.Fatal("corrupt entry changed the output")
	}
	if !strings.Contains(warmErr.String(), "memo store: 2 hits, 1 misses (1 stale), 1 entries written") {
		t.Errorf("stats did not report the stale recompute:\n%s", warmErr.String())
	}
}

// TestMemoOlderEntryRewritten: an entry an older build wrote, in the
// memo1 layout with a JSON value (testdata holds T2's at -runs 3), reads
// as one stale miss, is rewritten in place in the current layout, and
// hits on the next run; every run prints the storeless bytes.
func TestMemoOlderEntryRewritten(t *testing.T) {
	args := []string{"-runs", "3", "run", "T2", "-stats"}
	old, err := os.ReadFile("testdata/memo1-T2-runs3.entry")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(old, []byte("memo1 ")) {
		t.Fatalf("fixture is not a memo1 entry: %.40q", old)
	}
	dir := t.TempDir()
	run := func(withStore bool) (string, string) {
		a, out, errb, _ := testApp()
		argv := args
		if withStore {
			argv = append([]string{"-memo", dir}, args...)
		}
		if code := a.Execute(argv); code != 0 {
			t.Fatalf("exit = %d: %s", code, errb.String())
		}
		return out.String(), errb.String()
	}
	plain, _ := run(false)
	run(true)
	var entries []string
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			entries = append(entries, path)
		}
		return err
	})
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries %q (err %v), want one", entries, err)
	}
	if err := os.WriteFile(entries[0], old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memo store: 0 hits, 1 misses (1 stale), 1 entries written", "memo store: 1 hits, 0 misses"} {
		out, stats := run(true)
		if out != plain {
			t.Fatalf("run with the store differs from the storeless run:\n%s", out)
		}
		if !strings.Contains(stats, want) {
			t.Fatalf("stats do not report %q:\n%s", want, stats)
		}
		if now, err := os.ReadFile(entries[0]); err != nil || !bytes.HasPrefix(now, []byte("memo2 ")) {
			t.Fatalf("entry not rewritten in place as memo2 (err %v): %.40q", err, now)
		}
	}
}

// TestMemoRejectedForNonRunnerCommands mirrors the -faults guard:
// -memo only applies to the runner family.
func TestMemoRejectedForNonRunnerCommands(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"-memo", t.TempDir(), "check"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-memo does not apply") {
		t.Errorf("missing guard message:\n%s", errb.String())
	}
}
