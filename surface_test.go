package wsnva_test

// The surface test keeps the exported API from growing a second layer
// beside the paper's virtual architecture: every exported function and
// method in the module must be referenced from some non-test file (the
// commands, the examples, other packages, its own package, or the
// wsnbench module), implement a method of an interface in scope, or be
// listed in surfaceKeep with the reason it stays.

import (
	"bytes"
	"encoding/json"
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

// surfaceKeep lists the exported functions and methods that have no
// production caller but stay, keyed as "<pkg>.<Func>" or
// "<pkg>.<Type>.<Method>" with pkg relative to wsnva/internal.
var surfaceKeep = map[string]string{
	"varch.Machine.Send":                  "the paper's send(): the point-to-point primitive of the virtual architecture",
	"varch.Hierarchy.FollowerDistance":    "Section 4.2 cost function: member-to-leader hop distance the middleware exports",
	"varch.Hierarchy.MaxFollowerDistance": "Section 4.2 cost function: worst-case member-to-leader distance per level",
	"varch.Machine.SetJitter":             "TestJitteredDeliveryOrderIndependence needs delivery jitter to prove order independence",
	"routing.BFS":                         "shortest-hop oracle the vtree tests compare tree depths against",
	"taskgraph.Graph.Validate":            "the Figure 2 test checks the quad-tree task graph's kind rules with it",
	"wire.PayloadWords":                   "wire codec: grounds the cost model's data units in bytes for three test suites",
	"wire.EncodeSummary":                  "wire codec: grounds the cost model's data units in bytes for three test suites",
	"wire.EncodeGraphMsg":                 "wire codec: grounds the cost model's data units in bytes for three test suites",
	"wire.DecodeGraphMsg":                 "wire codec: grounds the cost model's data units in bytes for three test suites",
	"field.Parse":                         "builds the hand-drawn ASCII maps the labeling and contour tests are written against",
	"stats.Table.NumRows":                 "read accessor the experiment tests assert table shapes through",
	"stats.Table.Rows":                    "read accessor the experiment tests assert table cells through",
	"churn.Departures":                    "departure-only schedules for the churn, emul and shard churn tests",
	"cost.Ledger.Units":                   "per-operation unit totals; Tx/Rx/Sense accounting tests in five packages read them",
	"deploy.FromAdjacency":                "the only way to hand the radio a malformed adjacency list, which it must reject",
	"deploy.Network.CellsConnected":       "validation predicate the deploy differential suite pins the allocation-free form to",
	"deploy.Network.AdjacentCellsLinked":  "validation predicate the deploy differential suite pins the allocation-free form to",
	"metrics.Counter.N":                   "metrics read accessor: how tests and tools observe a registered counter",
	"metrics.Counter.Total":               "metrics read accessor: how tests and tools observe a registered counter",
	"metrics.Counter.Value":               "metrics read accessor: how tests and tools observe a registered counter",
	"metrics.Histogram.Count":             "metrics read accessor: how tests and tools observe a registered histogram",
	"metrics.Histogram.Max":               "metrics read accessor: how tests and tools observe a registered histogram",
	"metrics.Histogram.Min":               "metrics read accessor: how tests and tools observe a registered histogram",
	"metrics.Histogram.Sum":               "metrics read accessor: how tests and tools observe a registered histogram",
}

// listedPackage is the subset of `go list -json` output the scan reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	Module     *struct{ Path string }
}

// goListDeps lists the packages matched in dir together with all their
// dependencies, with export data built for the standard library ones.
func goListDeps(t *testing.T, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// surfaceChecker type-checks the module's packages from source, importing
// the standard library from export data.
type surfaceChecker struct {
	fset    *token.FileSet
	src     map[string]listedPackage // module packages by import path
	export  map[string]string        // stdlib export data files
	std     types.Importer
	checked map[string]*types.Package
	files   map[string][]*ast.File
	uses    map[*types.Func]bool
	ifaces  []*types.Interface
}

func (c *surfaceChecker) Import(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	lp, ok := c.src[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			c.uses[fn.Origin()] = true
		}
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			c.ifaces = append(c.ifaces, it)
		}
	}
	c.checked[path] = pkg
	c.files[path] = files
	return pkg, nil
}

// TestExportedSurfaceHasCallers fails on an exported function or method
// that no non-test file references, unless an interface in scope names it
// or surfaceKeep lists it with a reason.
func TestExportedSurfaceHasCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	c := &surfaceChecker{
		fset:    token.NewFileSet(),
		src:     map[string]listedPackage{},
		export:  map[string]string{},
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		uses:    map[*types.Func]bool{},
	}
	var roots []string // module packages whose declarations are checked
	var callers []string
	for _, dir := range []string{".", "wsnbench"} {
		for _, p := range goListDeps(t, dir) {
			switch {
			case p.Standard:
				c.export[p.ImportPath] = p.Export
			case p.Module != nil && p.Module.Path == "wsnva":
				if _, seen := c.src[p.ImportPath]; !seen {
					roots = append(roots, p.ImportPath)
				}
				c.src[p.ImportPath] = p
			case p.Module != nil:
				c.src[p.ImportPath] = p
				callers = append(callers, p.ImportPath)
			}
		}
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(c.export[path])
	})
	for _, path := range append(append([]string{}, roots...), callers...) {
		if _, err := c.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}
	// Interfaces declared by any package in scope, the standard library
	// ones included, plus the anonymous ones the module spells out.
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					c.ifaces = append(c.ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.checked {
		walk(p)
	}
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	uncalled := map[string]bool{} // every checked name -> no production caller
	var unused []string
	for _, path := range roots {
		pkg := c.checked[path]
		key := strings.TrimPrefix(strings.TrimPrefix(path, "wsnva/"), "internal/")
		for _, f := range c.files[path] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := pkg.Scope().Lookup(fd.Name.Name)
				name := key + "." + fd.Name.Name
				if fd.Recv != nil {
					recv := receiverName(fd.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
					tn := pkg.Scope().Lookup(recv).(*types.TypeName)
					obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, fd.Name.Name)
					fn = obj
					name = key + "." + recv + "." + fd.Name.Name
					if c.satisfiesInterface(tn.Type(), fd.Name.Name) {
						continue
					}
				}
				uncalled[name] = !c.uses[fn.(*types.Func)]
				if _, keep := surfaceKeep[name]; uncalled[name] && !keep {
					unused = append(unused, name)
				}
			}
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, move it test-side, or add it to surfaceKeep with a reason", name)
	}
	var stale []string
	for name := range surfaceKeep {
		if !uncalled[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("surfaceKeep lists %s, which is not an exported function or method without a production caller", name)
	}
}

// satisfiesInterface reports whether method name of T (or *T) is how T
// implements some interface in scope that declares that method.
func (c *surfaceChecker) satisfiesInterface(t types.Type, name string) bool {
	ptr := types.NewPointer(t)
	for _, it := range c.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != name {
				continue
			}
			if types.Implements(t, it) || types.Implements(ptr, it) {
				return true
			}
		}
	}
	return false
}

// receiverName returns the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
