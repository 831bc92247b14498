// Package workload implements a small trace language and replayer so that
// arbitrary file system workloads — not just the paper's benchmarks — can
// be timed against the three operating-system models. This is the tool a
// 1996 reader would have wanted next: "the paper's workloads are not
// mine; what would *my* job cost on each system?"
//
// A trace is a text file, one operation per line:
//
//	# comment
//	mkdir  <path>
//	create <path> <bytes>     create (or truncate) and write, then close
//	read   <path>             open, read the whole file, close
//	append <path> <bytes>     open, write at the end, close
//	stat   <path>
//	list   <path>
//	unlink <path>
//	rename <old> <new>
//	sync                      flush everything (local file systems only)
//	repeat <n>                loop the block until the matching "end"
//	end
//
// Sizes accept K/M suffixes ("64K", "2M"). Repeats nest. The "%i" token
// in a path expands to the innermost loop index, so traces can generate
// many files:
//
//	repeat 100
//	  create /spool/msg%i 4K
//	end
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/disk"
	"repro/internal/fs"
)

// maxOps bounds the operations a trace expands to, counting each once
// per iteration of its enclosing repeats: 1 to 3 s of host time on the
// three paper systems.
const maxOps = 1_000_000

// diskBytes is the capacity of the modelled HP 3725 that traces replay
// on. It bounds each create or append size and the bytes a trace writes
// in all: the fs model keeps every block it is given and has no ENOSPC,
// so a trace that wrote more would hold more than the disk.
var diskBytes = int64(disk.HP3725().CapacityMB) << 20

// readBudget bounds the bytes a replay reads, ten disks' worth: each read
// reads its whole file, so a trace within Parse's bounds could still
// read one 2,000 MB file a million times, for about 30 hours.
var readBudget = 10 * diskBytes

// OpKind enumerates trace operations.
type OpKind int

// The trace operations.
const (
	OpMkdir OpKind = iota
	OpCreate
	OpRead
	OpAppend
	OpStat
	OpList
	OpUnlink
	OpRename
	OpSync
	opRepeat
	opEnd
)

// Op is one parsed trace line.
type Op struct {
	Kind  OpKind
	Path  string
	Path2 string // rename target
	Bytes int64
	Count int // repeat count
	Line  int // source line, for errors
}

// Trace is a parsed workload.
type Trace struct {
	// Name identifies the trace (file name or builtin name).
	Name string
	// Ops is the flat operation list with repeat/end markers.
	Ops []Op
}

// Parse reads a trace from text. It refuses a trace past a bound, naming
// the line that crosses it: a repeat must hold an operation, and the
// expansion must stay within maxOps operations and diskBytes written.
func Parse(name, text string) (*Trace, error) {
	t := &Trace{Name: name}
	// mult holds, per open repeat, the product of the counts enclosing
	// its body (saturated past maxOps), and opened the expanded op count
	// when it opened, to refuse an empty body.
	mult := []int64{1}
	var opened []int64
	var ops, written int64
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		op := Op{Line: lineNo + 1}
		switch fields[0] {
		case "mkdir", "read", "stat", "list", "unlink":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%s:%d: %s needs a path", name, op.Line, fields[0])
			}
			op.Kind = map[string]OpKind{
				"mkdir": OpMkdir, "read": OpRead, "stat": OpStat,
				"list": OpList, "unlink": OpUnlink,
			}[fields[0]]
			op.Path = fields[1]
		case "create", "append":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s:%d: %s needs a path and size", name, op.Line, fields[0])
			}
			n, err := parseSize(fields[2])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", name, op.Line, err)
			}
			op.Kind = OpCreate
			if fields[0] == "append" {
				op.Kind = OpAppend
			}
			op.Path, op.Bytes = fields[1], n
		case "rename":
			if len(fields) != 3 {
				return nil, fmt.Errorf("%s:%d: rename needs two paths", name, op.Line)
			}
			op.Kind, op.Path, op.Path2 = OpRename, fields[1], fields[2]
		case "sync":
			op.Kind = OpSync
		case "repeat":
			if len(fields) != 2 {
				return nil, fmt.Errorf("%s:%d: repeat needs a count", name, op.Line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%s:%d: bad repeat count %q", name, op.Line, fields[1])
			}
			op.Kind, op.Count = opRepeat, n
			m := mult[len(mult)-1]
			if m > maxOps/int64(n) {
				m = maxOps + 1
			} else {
				m *= int64(n)
			}
			mult, opened = append(mult, m), append(opened, ops)
		case "end":
			if len(opened) == 0 {
				return nil, fmt.Errorf("%s:%d: end without repeat", name, op.Line)
			}
			if opened[len(opened)-1] == ops {
				return nil, fmt.Errorf("%s:%d: repeat block holds no operation", name, op.Line)
			}
			op.Kind = opEnd
			mult, opened = mult[:len(mult)-1], opened[:len(opened)-1]
		default:
			return nil, fmt.Errorf("%s:%d: unknown operation %q", name, op.Line, fields[0])
		}
		if op.Kind < opRepeat {
			// m ≤ maxOps once the op count passes, so m × Bytes cannot
			// overflow: Bytes ≤ diskBytes < 2^31.
			m := mult[len(mult)-1]
			if ops += m; ops > maxOps {
				return nil, fmt.Errorf("%s:%d: the trace expands past %d operations", name, op.Line, maxOps)
			}
			if written += m * op.Bytes; written > diskBytes {
				return nil, fmt.Errorf("%s:%d: the trace writes more than the disk's %d MB in all", name, op.Line, diskBytes>>20)
			}
		}
		t.Ops = append(t.Ops, op)
	}
	if len(opened) != 0 {
		return nil, fmt.Errorf("%s: %d unclosed repeat block(s)", name, len(opened))
	}
	return t, nil
}

// parseSize reads a size in bytes, K or M, refusing one past the disk's
// capacity (an overflowing one included).
func parseSize(size string) (int64, error) {
	mult, s := int64(1), size
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if n > diskBytes/mult {
		return 0, fmt.Errorf("size %s is past the disk's %d MB", size, diskBytes>>20)
	}
	return n * mult, nil
}

// Stats summarises a replay.
type Stats struct {
	Ops          int
	BytesWritten int64
	BytesRead    int64
	Errors       int
}

// Syncer is the optional flush capability (local file systems have it;
// NFS mounts are write-through and ignore sync).
type Syncer interface{ SyncAll() }

// Replay executes the trace against a file system. Missing files on
// read/stat/unlink count as errors but do not stop the replay (traces are
// workloads, not tests), and so does a read that would take the bytes
// read past readBudget, which is refused unread. It returns the
// operation statistics; the caller times the run with the clock it gave
// the VFS.
func Replay(v fs.VFS, t *Trace) Stats {
	var st Stats
	replayRange(v, t.Ops, 0, len(t.Ops), 0, &st)
	return st
}

// replayRange executes ops[from:to] with the given loop index.
func replayRange(v fs.VFS, ops []Op, from, to, idx int, st *Stats) {
	for i := from; i < to; i++ {
		op := ops[i]
		switch op.Kind {
		case opRepeat:
			body := i + 1
			end := matchEnd(ops, i)
			for n := 0; n < op.Count; n++ {
				replayRange(v, ops, body, end, n, st)
			}
			i = end
			continue
		case opEnd:
			continue
		}
		st.Ops++
		path := strings.ReplaceAll(op.Path, "%i", strconv.Itoa(idx))
		switch op.Kind {
		case OpMkdir:
			if err := v.Mkdir(path); err != nil {
				st.Errors++
			}
		case OpCreate:
			h, err := v.Create(path)
			if err != nil {
				st.Errors++
				continue
			}
			if op.Bytes > 0 {
				h.Write(op.Bytes)
				st.BytesWritten += op.Bytes
			}
			h.Close()
		case OpAppend:
			h, err := v.Open(path)
			if err != nil {
				st.Errors++
				continue
			}
			h.SeekTo(h.Size())
			h.Write(op.Bytes)
			st.BytesWritten += op.Bytes
			h.Close()
		case OpRead:
			h, err := v.Open(path)
			if err != nil {
				st.Errors++
				continue
			}
			if st.BytesRead+h.Size() > readBudget {
				h.Close()
				st.Errors++
				continue
			}
			for {
				got := h.Read(64 << 10)
				st.BytesRead += got
				if got == 0 {
					break
				}
			}
			h.Close()
		case OpStat:
			if _, err := v.Stat(path); err != nil {
				st.Errors++
			}
		case OpList:
			if _, err := v.List(path); err != nil {
				st.Errors++
			}
		case OpUnlink:
			if err := v.Unlink(path); err != nil {
				st.Errors++
			}
		case OpRename:
			path2 := strings.ReplaceAll(op.Path2, "%i", strconv.Itoa(idx))
			if err := v.Rename(path, path2); err != nil {
				st.Errors++
			}
		case OpSync:
			if s, ok := v.(Syncer); ok {
				s.SyncAll()
			}
		}
	}
}

// matchEnd returns the index of the end matching the repeat at i.
func matchEnd(ops []Op, i int) int {
	depth := 0
	for j := i; j < len(ops); j++ {
		switch ops[j].Kind {
		case opRepeat:
			depth++
		case opEnd:
			depth--
			if depth == 0 {
				return j
			}
		}
	}
	panic("workload: unbalanced repeat survived parsing")
}
