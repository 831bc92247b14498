package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibCalled names the methods the standard library calls through its
// own interfaces (fmt.Stringer, error, json.Marshaler, json.Unmarshaler,
// http.Handler), so they have callers no module code shows.
var stdlibCalled = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// surfaceKeep lists the exported names that only tests reach and stay in
// the binary anyway, each with its reason.
var surfaceKeep = map[string]string{
	"(*repro/internal/kernel.Pipe).Buffered":          "the pipe's byte-conservation identity reads it",
	"(*repro/internal/kernel.Machine).PhaseTime":      "the kernel's phase-ledger identity (phases sum to elapsed) reads it",
	"(*repro/internal/kernel.Machine).PhaseBreakdown": "the kernel's phase-ledger identity reads it",
	"(*repro/internal/fs.FileSystem).PhaseTime":       "the crtdel phase-ledger identity reads it",
	"(*repro/internal/fs.FileSystem).PhaseBreakdown":  "the crtdel phase-ledger identity reads it",
	"(*repro/internal/stats.Histogram).Merge":         "the histogram merge property and fuzz target exercise it",
	"(*repro/internal/kernel.Machine).NewRCU":         "deleting the RCU domain changes the profiles dump, every memo key and sensitivity's draws",
	"(*repro/internal/sim.Queue).Len":                 "nfsserver's TestEventQueueBounded bounds the pending events by it, across a package boundary",
	"(*repro/internal/fs.FileSystem).Stats":           "nfs's TestSyncServerCommitsToDisk and core's TestCrtdelDiskOpsMatchesLoop read disk writes by it, across a package boundary",
}

// TestExportedNamesHaveCallers keeps the binary to what a command, an
// exhibit, an example or perfbench calls: every exported func, method
// and package var under internal/ needs a caller outside test files, in
// this module or in perfbench. A name only tests reach belongs in the
// test (or its package's export_test.go), or on surfaceKeep with a
// reason.
func TestExportedNamesHaveCallers(t *testing.T) {
	u := newUniverse(t, ".", "perfbench")
	used := map[string]bool{}
	viaIface := map[*types.Func]bool{}
	for _, p := range u.sorted() {
		if p.DepOnly {
			continue
		}
		pkg := u.check(t, p.ImportPath)
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = pkg.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.info.Uses[id]
					if obj == nil || obj == self {
						return true
					}
					if fn, ok := obj.(*types.Func); ok {
						fn = fn.Origin()
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							viaIface[fn] = true
						}
						obj = fn
					}
					used[surfaceKey(obj)] = true
					return true
				})
			}
		}
	}

	var unused []string
	declared := map[string]bool{}
	for _, p := range u.sorted() {
		if !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		scope := u.check(t, p.ImportPath).pkg.Scope()
		var objs []types.Object
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func, *types.Var:
				if obj.Exported() {
					objs = append(objs, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !stdlibCalled[m.Name()] && !calledViaInterface(m, named, viaIface) {
						objs = append(objs, m)
					}
				}
			}
		}
		for _, obj := range objs {
			key := surfaceKey(obj)
			declared[key] = true
			if !used[key] && surfaceKeep[key] == "" {
				unused = append(unused, key)
			}
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported names under internal/ have no caller outside tests; delete them, move them into export_test.go, or keep them with a reason in surfaceKeep:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
	for key := range surfaceKeep {
		if !declared[key] {
			t.Errorf("surfaceKeep names %s, which is no longer declared", key)
		}
	}
}

// calledViaInterface reports whether m implements an interface method
// that module code calls.
func calledViaInterface(m *types.Func, named *types.Named, called map[*types.Func]bool) bool {
	for im := range called {
		if im.Name() != m.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// surfaceKey names a package-level func or var by import path, and a
// method by its receiver: "(*repro/internal/stats.Sample).Mean".
func surfaceKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// listedPkg is the part of `go list -json` the surface check reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool // only a dependency, not a package of this module or of perfbench
}

type checkedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// universe type-checks this module's and perfbench's packages from
// source, in one type universe so that an object perfbench uses is the
// object internal/ declares; standard-library imports come from the
// export data `go list -export` names.
type universe struct {
	fset    *token.FileSet
	listed  map[string]*listedPkg
	checked map[string]*checkedPkg
	std     types.Importer
}

func newUniverse(t *testing.T, moduleDirs ...string) *universe {
	u := &universe{fset: token.NewFileSet(), listed: map[string]*listedPkg{}, checked: map[string]*checkedPkg{}}
	for _, dir := range moduleDirs {
		for _, p := range goList(t, dir) {
			// perfbench lists this module's packages as dependencies.
			if prev := u.listed[p.ImportPath]; prev == nil || prev.DepOnly {
				u.listed[p.ImportPath] = p
			}
		}
	}
	u.std = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := u.listed[path]
		if p == nil || p.Export == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(p.Export)
	})
	return u
}

// goList lists the packages under dir with every dependency and its
// export data.
func goList(t *testing.T, dir string) []*listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
}

func (u *universe) sorted() []*listedPkg {
	var ps []*listedPkg
	for _, p := range u.listed {
		if !p.Standard {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].ImportPath < ps[j].ImportPath })
	return ps
}

func (u *universe) check(t *testing.T, path string) *checkedPkg {
	t.Helper()
	if c := u.checked[path]; c != nil {
		return c
	}
	p := u.listed[path]
	c := &checkedPkg{info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(p.Dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if q := u.listed[imp]; q != nil && !q.Standard {
			return u.check(t, imp).pkg, nil
		}
		return u.std.Import(imp)
	})}
	pkg, err := conf.Check(path, u.fset, c.files, c.info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	c.pkg = pkg
	u.checked[path] = c
	return c
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
