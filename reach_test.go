package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the production functions that no binary reaches
// but that a test in another package needs. A _test.go helper cannot
// cross packages, so these stay in production code, and so does what
// they call. Each entry says which test needs it.
var reachAllowlist = map[string]string{
	"tle.Parse":                          "sgp4 TestPropagateMatchesReference, TestISSRealTLE; constellation TestExportTLEsParsesBack",
	"constellation.SnapshotCache.Pinned": "core TestCampaignLeavesNothingPinned",
	"scheduler.Global.Fleet":             "scenario TestSiblingsKeepParentEnvironment: a no-battery sibling builds no fleet",
	"stats.MeanStd":                      "features TestClusterIntoMatchesCluster: the oracle ClusterInto matches bit for bit",
}

// TestEveryFunctionReachable type-checks every non-test file of the
// module, perfbench included, and walks the call graph from every
// binary's main, every init, every package-level initializer and every
// method whose name an interface declares. A function outside perfbench
// that the walk never reaches is dead code: delete it, move it into the
// _test.go of the package whose tests use it, or, when a test in
// another package needs it, add it to reachAllowlist.
func TestEveryFunctionReachable(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	byBinaries := m.reachable(nil)
	byTests := m.reachable(reachAllowlist)
	var dead []string
	seen := map[string]bool{}
	for fn, d := range m.decls {
		name := funcName(fn)
		seen[name] = true
		if why, ok := reachAllowlist[name]; ok && byBinaries[fn] {
			t.Errorf("allowlist entry %s (%s) is reachable now: drop it", name, why)
		}
		if !byTests[fn] && d.pkg.path != "repro/perfbench" {
			dead = append(dead, m.fset.Position(d.decl.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no binary reaches %s", d)
	}
	for name, why := range reachAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s (%s) names no function", name, why)
		}
	}
}

// knobAllowlist names the exported fields that no production code
// outside their package reads or writes, but that a test or an open
// ROADMAP item sets to a second value. Each entry says which.
var knobAllowlist = map[string]string{
	"coord.Coordinator.CallTimeout":  "coord TestCoordinatorWorkerDeath, TestCoordinatorAllWorkersDead: 200 ms to 2 s timers",
	"coord.Coordinator.MaxAttempts":  "coord TestCoordinatorAllWorkersDead: two attempts",
	"coord.Coordinator.Backoff":      "coord TestCoordinatorWorkerDeath, TestCoordinatorAllWorkersDead: 10-20 ms backoff",
	"ml.TreeConfig.MaxFeatures":      "ml TestFitTreePresortIdentical, TestForestGoldenFingerprint sweep it against the oracle",
	"ml.TreeConfig.MinSamplesSplit":  "ml TestFitTreePresortIdentical, TestForestGoldenFingerprint sweep it against the oracle",
	"netsim.Config.JitterStdMs":      "netsim TestMACBandsVisible pins the RTT arithmetic at near-zero jitter",
	"netsim.Config.LossProb":         "netsim TestMACBandsVisible, TestHandoverLossElevated",
	"netsim.Config.HandoverLossProb": "netsim TestMACBandsVisible, TestHandoverLossElevated",
	"netsim.Config.CoTerminalsMin":   "ROADMAP item 12: the single-band control asks for no co-terminals",
	"netsim.Config.CoTerminalsMax":   "ROADMAP item 12: the single-band control asks for no co-terminals",
	"scheduler.Config.Battery":       "scheduler TestConstrainedSatellitesExcluded: the battery-floor eligibility test",
	"tle.TLE.ClassClass":             "TLE format column: tle TestParseISS, TestFormatRoundTripRandom parse and write real values",
	"tle.TLE.MeanMotionDot":          "TLE format column: tle TestParseISS, TestFormatRoundTripRandom parse and write real values",
	"tle.TLE.MeanMotionDDot":         "TLE format column: tle TestParseISS, TestFormatRoundTripRandom parse and write real values",
	"tle.TLE.ElementSetNum":          "TLE format column: tle TestParseISS, TestFormatRoundTripRandom parse and write real values",
	"tle.TLE.RevNumber":              "TLE format column: tle TestParseISS, TestFormatRoundTripRandom parse and write real values",
}

// TestEveryKnobSet checks every exported struct type that production
// code outside its package builds with a composite literal. Each of its
// exported fields without a json tag must be read or written by
// production code outside that package: a module binary, an example or
// perfbench. A field nobody outside touches is a knob held at its
// default: make the default a constant or an unexported field, or, when
// a test or a ROADMAP item needs a second value, add it to
// knobAllowlist. A json field is part of a file format and is not
// checked.
func TestEveryKnobSet(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	built := map[*types.TypeName]*types.Struct{}
	touched := map[*types.Var]bool{}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tn, st := namedStruct(p.info.TypeOf(n))
					if st == nil || tn.Pkg() == p.pkg {
						break
					}
					built[tn] = st
					if len(n.Elts) > 0 {
						if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								touched[st.Field(i)] = true
							}
						}
					}
				case *ast.Ident:
					if v, ok := p.info.Uses[n].(*types.Var); ok && v.IsField() && v.Pkg() != p.pkg {
						touched[v.Origin()] = true
					}
				}
				return true
			})
		}
	}
	var unset []string
	seen := map[string]bool{}
	for tn, st := range built {
		if _, ours := m.pkgs[tn.Pkg().Path()]; !ours || !tn.Exported() {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if !v.Exported() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
				continue
			}
			name := tn.Pkg().Name() + "." + tn.Name() + "." + v.Name()
			seen[name] = true
			why, listed := knobAllowlist[name]
			switch {
			case touched[v] && listed:
				t.Errorf("allowlist entry %s (%s) is set outside its package now: drop it", name, why)
			case !touched[v] && !listed:
				unset = append(unset, m.fset.Position(v.Pos()).String()+": "+name)
			}
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no production code outside its package reads or writes %s", u)
	}
	for name, why := range knobAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s (%s) names no checked field", name, why)
		}
	}
	t.Logf("%d fields checked, %d allowlisted", len(seen), len(knobAllowlist))
}

// namedStruct returns the declared type and struct of t, when t is a
// named struct type, and nil otherwise.
func namedStruct(t types.Type) (*types.TypeName, *types.Struct) {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return nil, nil
	}
	n = n.Origin()
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return n.Obj(), st
}

// funcName renders fn as pkg.Func or pkg.Recv.Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		if n, ok := typ.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

type modPkg struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
	done  bool
}

type funcDecl struct {
	pkg  *modPkg
	decl *ast.FuncDecl
}

type module struct {
	fset  *token.FileSet
	pkgs  map[string]*modPkg
	std   types.Importer
	decls map[*types.Func]funcDecl
}

// loadModule parses and type-checks the non-test files of every package
// under root: the module, and the perfbench module, which replaces the
// module with this tree. Build constraints are the host's.
func loadModule(root string) (*module, error) {
	m := &module{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*modPkg{},
		std:   importer.Default(),
		decls: map[*types.Func]funcDecl{},
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if dir != root && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		p := &modPkg{path: filepath.ToSlash(filepath.Join("repro", dir))}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(m.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, af)
		}
		m.pkgs[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range m.pkgs {
		if _, err := m.Import(p.path); err != nil {
			return nil, err
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					m.decls[p.info.Defs[fd.Name].(*types.Func)] = funcDecl{p, fd}
				}
			}
		}
	}
	return m, nil
}

// Import type-checks module packages from source, on first use, and
// leaves the standard library to the default importer.
func (m *module) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if !p.done {
		p.done = true
		p.info = &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: m}
		p.pkg, p.err = conf.Check(path, m.fset, p.files, p.info)
	}
	return p.pkg, p.err
}

// reachable walks the call graph from the roots, plus the functions
// named in extra, and returns every function it reaches. A use of a
// function or method, called or taken as a value, is an edge.
func (m *module) reachable(extra map[string]string) map[*types.Func]bool {
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	visit := func(info *types.Info, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					fn = fn.Origin()
					if !reached[fn] {
						reached[fn] = true
						queue = append(queue, fn)
					}
				}
			}
			return true
		})
	}
	ifaceMethods := m.interfaceMethodNames()
	for fn, d := range m.decls {
		recv := d.decl.Recv != nil
		_, kept := extra[funcName(fn)]
		if kept || (!recv && (fn.Name() == "init" || fn.Name() == "main" && d.pkg.pkg.Name() == "main")) ||
			(recv && ifaceMethods[fn.Name()]) {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					visit(p.info, gd)
				}
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if d, ok := m.decls[fn]; ok && d.decl.Body != nil {
			visit(d.pkg.info, d.decl.Body)
		}
	}
	return reached
}

// interfaceMethodNames collects the method names of every interface type
// the module can see: its own, named or literal, and every named one in
// the packages it imports, transitively. A method of one of those names
// may be called through an interface, from the module or from the
// standard library (fmt calls String, sort calls Less), so it is a root.
func (m *module) interfaceMethodNames() map[string]bool {
	names := map[string]bool{"Error": true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.pkg)
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, fld := range it.Methods.List {
						for _, id := range fld.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}
