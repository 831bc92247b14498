package workload

import "testing"

// FuzzParse exercises the trace parser with arbitrary input: it must
// either return an error or a structurally sound trace that expands
// within the budget — at most maxOps operations, at most diskBytes
// written, and no repeat without an operation — so that replaying it
// is bounded. The expansion is recomputed here in float64, apart from
// Parse's saturating integers.
func FuzzParse(f *testing.F) {
	f.Add("mkdir /d\ncreate /d/f 4K\n")
	f.Add("repeat 3\n  create /x%i 1K\nend\n")
	f.Add("rename /a /b\nsync\n# comment\n")
	f.Add("repeat 2\nrepeat 2\nstat /s\nend\nend\n")
	f.Add("repeat 1000\nrepeat 1000\nstat /s\nend\nend\n")
	f.Add("repeat 1000\ncreate /f%i 2M\nend\n")
	f.Add("create /f 8796093022208M\n")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse("fuzz", src)
		if err != nil {
			return
		}
		// Structural invariants: repeats balanced, counts positive,
		// matchEnd total.
		mult := []float64{1}
		var bodies []float64 // expanded ops when each open repeat opened
		var ops, written float64
		for _, op := range tr.Ops {
			switch op.Kind {
			case opRepeat:
				if op.Count <= 0 {
					t.Fatalf("repeat with count %d accepted", op.Count)
				}
				mult = append(mult, mult[len(mult)-1]*float64(op.Count))
				bodies = append(bodies, ops)
			case opEnd:
				if len(bodies) == 0 {
					t.Fatal("unbalanced end accepted")
				}
				if bodies[len(bodies)-1] == ops {
					t.Fatal("empty repeat accepted")
				}
				mult, bodies = mult[:len(mult)-1], bodies[:len(bodies)-1]
			default:
				if op.Bytes < 0 || op.Bytes > diskBytes {
					t.Fatalf("size %d accepted", op.Bytes)
				}
				ops += mult[len(mult)-1]
				written += mult[len(mult)-1] * float64(op.Bytes)
			}
		}
		if len(bodies) != 0 {
			t.Fatal("unbalanced repeat accepted")
		}
		if ops > maxOps || written > float64(diskBytes) {
			t.Fatalf("accepted a trace expanding to %g ops and %g bytes written", ops, written)
		}
	})
}
