package cli

import (
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
