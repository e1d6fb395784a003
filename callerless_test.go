package instantad_test

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// callerlessAllow lists the internal names that no non-test code reaches
// but that stay, each with its reason. Keep it short: a name that only a
// test calls belongs in a _test.go file.
var callerlessAllow = map[string]string{
	"instantad/internal/sim.Event.Pending": "core's timer-invariant tests ask whether a cache entry's or a scan's timer is still queued, and sim shows that to other packages no other way",
}

// TestNoCallerlessInternalNames fails when a package-level func, method,
// type, const or var declared in a non-test file under internal/ has no
// reference from the non-test code of this module or of bench/. Delete
// such a name, move it into a _test.go file of its package, or allowlist
// it above with a reason. Run it alone with
//
//	go test -run TestNoCallerlessInternalNames -v .
func TestNoCallerlessInternalNames(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules; skipped under -short")
	}
	names, err := callerless(".", "bench")
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool, len(names))
	for _, n := range names {
		found[n] = true
		if _, ok := callerlessAllow[n]; !ok {
			t.Errorf("%s: no non-test code reaches it; delete it, move it into a _test.go file, or allowlist it with a reason", n)
		}
	}
	for n := range callerlessAllow {
		if !found[n] {
			t.Errorf("%s is allowlisted but is reached or gone; drop its entry", n)
		}
	}
}

// TestCallerlessFixture runs the scan on a two-module fixture: a
// caller-less func and a method that only a _test.go file calls are
// flagged; a method that satisfies fmt.Stringer and a func whose only
// caller is the second module are not.
func TestCallerlessFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command on a fixture module; skipped under -short")
	}
	root := filepath.Join("testdata", "callerless")
	got, err := callerless(root, filepath.Join(root, "second"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"example/internal/lib.Orphan", "example/internal/lib.Square.Area"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("callerless = %v, want %v", got, want)
	}
}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Main bool
	}
}

// callerless type-checks the non-test files of every package in the
// module at roots[0] and in each further module root (which may import
// the first), and returns, sorted, each package-level declaration under
// the first module's internal/ tree that none of that code references.
// A method also counts as reached when its receiver type, T or *T,
// implements an interface type of the checked program that has it.
func callerless(roots ...string) ([]string, error) {
	listed := map[string]*listedPkg{}
	var mainModule string
	for i, root := range roots {
		pkgs, err := goList(root)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			if i == 0 && p.Module != nil && p.Module.Main {
				mainModule = p.Module.Path
			}
			if listed[p.ImportPath] == nil {
				listed[p.ImportPath] = p
			}
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := listed[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	var files []*ast.File
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		p := listed[path]
		if p == nil || p.Standard {
			return std.Import(path)
		}
		var pfiles []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			pfiles = append(pfiles, f)
		}
		conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
			if mapped, ok := p.ImportMap[imp]; ok {
				imp = mapped
			}
			return check(imp)
		})}
		pkg, err := conf.Check(path, fset, pfiles, info)
		if err != nil {
			return nil, err
		}
		checked[path] = pkg
		files = append(files, pfiles...)
		return pkg, nil
	}
	paths := make([]string, 0, len(listed))
	for path, p := range listed {
		if !p.Standard {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	for _, sel := range info.Selections {
		used[origin(sel.Obj())] = true
	}
	markInterfaceMethods(checked, files, info, used)

	var out []string
	for _, path := range paths {
		if !strings.HasPrefix(path, mainModule+"/internal/") {
			continue
		}
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			if !used[obj] {
				out = append(out, path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !used[m] {
					out = append(out, path+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// markInterfaceMethods marks as used every method that lets a named type
// of the checked packages, through *T's method set, implement a non-empty
// interface: a named one from any package the program reaches (error
// included), or an interface literal written in the checked code.
func markInterfaceMethods(checked map[string]*types.Package, files []*ast.File, info *types.Info, used map[types.Object]bool) {
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || seen[iface] {
			return
		}
		seen[iface] = true
		name := iface.Method(0).Name()
		byMethod[name] = append(byMethod[name], iface)
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				add(named)
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.InterfaceType); ok {
				if t := info.TypeOf(lit); t != nil {
					add(t)
				}
			}
			return true
		})
	}

	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for i := 0; i < mset.Len(); i++ {
				for _, iface := range byMethod[mset.At(i).Obj().Name()] {
					if !types.Implements(ptr, iface) {
						continue
					}
					for j := 0; j < iface.NumMethods(); j++ {
						m := iface.Method(j)
						if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
							used[origin(sel.Obj())] = true
						}
					}
				}
			}
		}
	}
}

// origin maps an instantiated generic func, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList lists the packages matching ./... in the module at dir with their
// dependencies, building export data for each.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}
