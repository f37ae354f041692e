package snap

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// internalsAllowlist names declarations under internal/ that stay
// although no root reaches them, each with its reason. Keys read
// "<package>.<Name>" or "<package>.(*<Type>).<Method>", the package as
// its path below internal/.
var internalsAllowlist = map[string]string{
	"community.MetricDegree": "§1.5 pLA's degree measure; PLAOptions.Metric's zero value, so callers select it by omission",
}

// optionAllowlist names exported option fields that no reached
// non-test code writes. Each value reads "<category>" or
// "<category>: <reason>", the category one of optionCategories.
var optionAllowlist = map[string]string{
	"centrality.ApproxOptions.Workers":         "workers",
	"centrality.ClosenessOptions.Workers":      "workers",
	"ingest.Options.Workers":                   "workers",
	"metrics.DiameterOptions.Workers":          "workers",
	"metrics.PathLengthOptions.Workers":        "workers",
	"partition.MultilevelOptions.Workers":      "workers",
	"sketch.ANFOptions.Workers":                "workers",
	"snap.PartitionOptions.Workers":            "workers",
	"community.LouvainOptions.Stats":           "stats",
	"partition.MultilevelOptions.Stats":        "stats",
	"sketch.ANFOptions.Stats":                  "stats",
	"snap.PartitionOptions.Stats":              "stats",
	"sssp.DeltaSteppingOptions.Stats":          "stats",
	"graph/container.LoadOptions.Validate":     "safety: the full invariant check for containers from untrusted sources",
	"centrality.PageRankOptions.Tolerance":     "seam: TestPageRankFromMatchesFull converges cold and warm runs to 1e-10 to compare PageRankFrom, the warm start snap-serve's artifact cache chains",
	"centrality.PageRankOptions.MaxIterations": "seam: BenchmarkBlockedLayout times a fixed 30 sweeps of the PageRank loop snap-analyze and snap-serve run, on identity and blocked order",
	"community.PMAOptions.ParallelThreshold":   "seam: TestAgglomerativeGoldens lowers it so E-mail's merges take the parallel ΔQ-update arm that pMA runs on rows above 512",
	"frontier.Options.ForceBottomUp":           "seam: TestEngineMatchesOracleAcrossFamilies forces switches at every level to drive the bottom-up arm every direction-optimizing traversal takes",
	"graph.BuildOptions.AllowMulti":            "seam: the assembly and container tests build multigraphs, which reach the kernels through SNP2 containers (snap-serve -graph)",
	"graph.BuildOptions.AllowSelfLoops":        "seam: the assembly and community tests build self-loops, which reach the kernels through SNP2 containers (snap-serve -graph)",
	"graph/container.LoadOptions.ForceCopy":    "seam: TestRoundTripFile loads through the heap-materializing decode that every compressed container takes on a snap-serve -graph load",
	"sketch.OracleOptions.Landmarks":           "seam: TestOracleBoundsBracketExact's 8 landmarks leave twocomp's ring uncovered, the unresolved-pair branch serve's estimate op answers",
	"centrality.ApproxOptions.SampleFraction":  "paper: §1.3 adaptive sampling's source budget (the paper's 5%)",
	"centrality.ApproxOptions.Alpha":           "paper: §1.3 adaptive sampling's stopping cutoff α·n",
	"centrality.ApproxOptions.ComputeEdge":     "paper: §1.3 betweenness's edge variant",
	"community.PLAOptions.Metric":              "paper: §1.5 pLA's two local measures, degree and clustering coefficient",
	"partition.SpectralOptions.MaxIterations":  "paper: §1.6 the Chaco baselines' eigensolver budget, whose exhaustion is Table 1's non-convergence",
	"partition.SpectralOptions.Tolerance":      "paper: §1.6 the Chaco baselines' eigen-residual, whose miss is Table 1's non-convergence",
	"sssp.DeltaSteppingOptions.Delta":          "paper: §1.2 delta-stepping's bucket width Δ",
}

// optionCategories is the closed set of reasons an option field may
// stay without a caller, each marked true when its entries must also
// give the particular reason:
//   - workers: worker-count code, justified by the Workers-1/2/4 goldens;
//   - stats: caller-owned telemetry, nil means off;
//   - safety: a check for untrusted input;
//   - seam: a test drives a production path through it (the reason names both);
//   - paper: DESIGN.md §1 names the behaviour it selects.
var optionCategories = map[string]bool{"workers": false, "stats": false, "safety": true, "seam": true, "paper": true}

// reachProgram is every non-test package of the snap module and of the
// nested benchmark module, type-checked together for the host's GOOS
// and GOARCH with the standard library read from source.
type reachProgram struct {
	fset    *token.FileSet
	pkgs    []*reachPackage
	decls   []*reachDecl
	byObj   map[types.Object]*reachDecl
	roots   []*reachDecl
	mains   map[string]bool // import paths whose main is a root
	reached map[*reachDecl]bool
}

type reachPackage struct {
	path  string
	types *types.Package
	info  *types.Info
}

// reachDecl is one package-level declaration or method, or the
// initializer of a package-level var (obj nil, always a root).
type reachDecl struct {
	pkg  *reachPackage
	obj  types.Object
	node ast.Node
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var (
	reachOnce sync.Once
	reachProg *reachProgram
	reachErr  error
)

func loadReach(t *testing.T) *reachProgram {
	t.Helper()
	reachOnce.Do(func() { reachProg, reachErr = buildReachProgram() })
	if reachErr != nil {
		t.Fatal(reachErr)
	}
	return reachProg
}

func buildReachProgram() (*reachProgram, error) {
	// The source importer reads build.Default; without cgo it never
	// shells out to the cgo tool for net and os/user.
	saved := build.Default
	build.Default.CgoEnabled = false
	defer func() { build.Default = saved }()
	ctxt := build.Default

	fset := token.NewFileSet()
	files := map[string][]string{} // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		ipath := "snap"
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		for _, f := range bp.GoFiles {
			files[ipath] = append(files[ipath], filepath.Join(path, f))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	prog := &reachProgram{fset: fset, byObj: map[types.Object]*reachDecl{}, mains: map[string]bool{}}
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		names, ok := files[path]
		if !ok {
			return std.Import(path)
		}
		var asts []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			asts = append(asts, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", ctxt.GOARCH)}
		p, err := conf.Check(path, fset, asts, info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		prog.addPackage(&reachPackage{path: path, types: p, info: info}, asts)
		return p, nil
	}
	var paths []string
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp(path); err != nil {
			return nil, err
		}
	}
	prog.reach(prog.interfaces())
	return prog, nil
}

// addPackage records pkg's declarations and its roots: main, init,
// every var initializer, and every exported name of the facade.
func (p *reachProgram) addPackage(pkg *reachPackage, files []*ast.File) {
	p.pkgs = append(p.pkgs, pkg)
	add := func(obj types.Object, node ast.Node, root bool) {
		d := &reachDecl{pkg: pkg, obj: obj, node: node}
		p.decls = append(p.decls, d)
		if obj != nil {
			p.byObj[obj] = d
		}
		if root {
			p.roots = append(p.roots, d)
		}
	}
	facade := pkg.path == "snap"
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				isMain := decl.Recv == nil && name == "main" && pkg.types.Name() == "main"
				if isMain {
					p.mains[pkg.path] = true
				}
				root := isMain || (decl.Recv == nil && name == "init") || (facade && decl.Recv == nil && ast.IsExported(name))
				add(pkg.info.Defs[decl.Name], decl, root)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(pkg.info.Defs[spec.Name], spec, facade && spec.Name.IsExported())
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.Name != "_" {
								add(pkg.info.Defs[name], spec, facade && name.IsExported())
							}
						}
						if len(spec.Values) > 0 && decl.Tok == token.VAR {
							add(nil, spec, true)
						}
					}
				}
			}
		}
	}
}

// declOf maps a referenced object to its declaration, or nil for
// fields, locals and objects outside the two modules.
func (p *reachProgram) declOf(obj types.Object) *reachDecl {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		if o.IsField() {
			return nil
		}
	}
	return p.byObj[obj]
}

// interfaces returns every interface type the code uses: those in the
// type of any expression of the two modules, error, and the exported
// interfaces of each standard package they import (fmt's Stringer and
// encoding/json's Marshaler are called through any).
func (p *reachProgram) interfaces() []*types.Interface {
	seen := map[*types.Interface]bool{}
	var out []*types.Interface
	addIface := func(it *types.Interface) {
		if it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			out = append(out, it)
		}
	}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if it, ok := t.Underlying().(*types.Interface); ok {
				addIface(it)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			addIface(t)
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walk(tuple.At(i).Type())
				}
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	walk(types.Universe.Lookup("error").Type())
	for _, pkg := range p.pkgs {
		for _, tv := range pkg.info.Types {
			walk(tv.Type)
		}
		for _, imp := range pkg.types.Imports() {
			if strings.HasPrefix(imp.Path(), "snap") {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					walk(tn.Type())
				}
			}
		}
	}
	return out
}

// reach marks everything the roots reach. A declaration reaches each
// declaration its syntax references and the named types in its own
// type. A method is reached when it is referenced, or when its
// receiver type is reached and the method belongs to an interface of
// ifaces that the type (or a pointer to it) implements: the method may
// then run through that interface.
func (p *reachProgram) reach(ifaces []*types.Interface) {
	p.reached = map[*reachDecl]bool{}
	queue := append([]*reachDecl(nil), p.roots...)
	push := func(d *reachDecl) {
		if d != nil && !p.reached[d] {
			queue = append(queue, d)
		}
	}
	var walkTypes func(t types.Type)
	walkTypes = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			push(p.declOf(t.Origin().Obj()))
		case *types.Pointer:
			walkTypes(t.Elem())
		case *types.Slice:
			walkTypes(t.Elem())
		case *types.Array:
			walkTypes(t.Elem())
		case *types.Map:
			walkTypes(t.Key())
			walkTypes(t.Elem())
		case *types.Chan:
			walkTypes(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					walkTypes(tuple.At(i).Type())
				}
			}
		}
	}
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if p.reached[d] {
			continue
		}
		p.reached[d] = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := d.pkg.info.Uses[id]; obj != nil {
					push(p.declOf(obj))
				}
			}
			return true
		})
		if d.obj == nil {
			continue
		}
		walkTypes(d.obj.Type())
		tn, ok := d.obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					push(p.declOf(obj))
				}
			}
		}
	}
}

// internalPath returns pkg's path below internal/, or "" outside it.
func internalPath(pkg *reachPackage) string {
	rest, ok := strings.CutPrefix(pkg.path, "snap/internal/")
	if !ok {
		return ""
	}
	return rest
}

// reachKey names d as internalsAllowlist does.
func reachKey(d *reachDecl) string {
	name := d.obj.Name()
	if fn, ok := d.obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			switch t := types.Unalias(recv.Type()).(type) {
			case *types.Pointer:
				name = "(*" + t.Elem().(*types.Named).Obj().Name() + ")." + name
			case *types.Named:
				name = t.Obj().Name() + "." + name
			}
		}
	}
	return internalPath(d.pkg) + "." + name
}

// TestInternalsReached pins ROADMAP item 13: non-test code is
// reachable code. The roots are every main under cmd/ and examples/,
// the benchmark module's main, every exported name of snap.go (each of
// which TestFacadeEarnsEntries keeps or fails), init functions and
// package-level var initializers. Reach follows references; a method
// is also reached when its receiver type is reached and the method
// belongs to an interface the code uses that the type implements.
// Every func, method, type, var and const under internal/, except in
// internal/oracle, is reached or on internalsAllowlist with a reason;
// a stale allowlist entry fails. internal/oracle holds the reference
// implementations the tests check kernels against, so no non-test
// file may import it.
func TestInternalsReached(t *testing.T) {
	prog := loadReach(t)

	var want []string
	for _, glob := range []string{"cmd/*", "examples/*"} {
		dirs, _ := filepath.Glob(glob)
		for _, dir := range dirs {
			want = append(want, "snap/"+filepath.ToSlash(dir))
		}
	}
	if len(want) < 12 {
		t.Fatalf("found %d directories under cmd/ and examples/, want at least 12", len(want))
	}
	want = append(want, "snap/benchmark")
	for _, path := range want {
		if !prog.mains[path] {
			t.Errorf("no main found in %s", path)
		}
	}

	declared := map[string]bool{}
	checked := 0
	for _, d := range prog.decls {
		ipath := internalPath(d.pkg)
		if d.obj == nil || ipath == "" || ipath == "oracle" {
			continue
		}
		checked++
		key := reachKey(d)
		declared[key] = true
		switch why, listed := internalsAllowlist[key]; {
		case prog.reached[d] && listed:
			t.Errorf("internalsAllowlist names %s, which a root already reaches", key)
		case !prog.reached[d] && !listed:
			t.Errorf("%s (%s): no root reaches it and internalsAllowlist does not name it", key, filepath.Base(prog.position(d)))
		case listed && strings.TrimSpace(why) == "":
			t.Errorf("internalsAllowlist entry %s gives no reason", key)
		}
	}
	if checked < 700 {
		t.Errorf("checked %d declarations under internal/, want at least 700", checked)
	}
	for key := range internalsAllowlist {
		if !declared[key] {
			t.Errorf("internalsAllowlist names %s, which is not declared under internal/", key)
		}
	}

	oracleFound := false
	for _, pkg := range prog.pkgs {
		if pkg.path == "snap/internal/oracle" {
			oracleFound = true
			for _, imp := range pkg.types.Imports() {
				if strings.HasPrefix(imp.Path(), "snap") && imp.Path() != "snap/internal/graph" {
					t.Errorf("internal/oracle imports %s; it may import only internal/graph", imp.Path())
				}
			}
		}
		for _, imp := range pkg.types.Imports() {
			if imp.Path() == "snap/internal/oracle" {
				t.Errorf("%s imports internal/oracle outside a _test.go file", pkg.path)
			}
		}
	}
	if !oracleFound {
		t.Error("internal/oracle not found")
	}
}

func (p *reachProgram) position(d *reachDecl) string {
	return p.fset.Position(d.node.Pos()).String()
}

// optionWrite is one write of an option field; src is the option field
// it copies, when it is a pass-through such as Workers: opt.Workers.
type optionWrite struct {
	field, src *types.Var
}

// TestOptionsHaveCallers pins the same rule for option fields: every
// exported field of an exported ...Options struct is written by
// reached non-test code, as a composite-literal key or the target of
// an assignment. A function defaulting the options it was given (its
// receiver or parameter, as a fill method does) is not a caller, and a
// pass-through copy counts only once its source field is written. A
// field nothing writes is on optionAllowlist under a category of
// optionCategories; a stale entry fails.
func TestOptionsHaveCallers(t *testing.T) {
	prog := loadReach(t)

	fields := map[*types.Var]string{} // option field → allowlist key
	for _, pkg := range prog.pkgs {
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = strings.TrimPrefix(strings.TrimPrefix(pkg.path, "snap/internal/"), "snap/") + "." + name + "." + f.Name()
				}
			}
		}
	}
	if len(fields) < 70 {
		t.Fatalf("found %d exported option fields, want at least 70", len(fields))
	}

	var writes []optionWrite
	for _, d := range prog.decls {
		if !prog.reached[d] {
			continue
		}
		info := d.pkg.info
		// The receiver and parameters of a function are the options it
		// was given; writing them is defaulting, not calling.
		own := map[types.Object]bool{}
		if fn, ok := d.node.(*ast.FuncDecl); ok {
			var lists []*ast.Field
			if fn.Recv != nil {
				lists = append(lists, fn.Recv.List...)
			}
			lists = append(lists, fn.Type.Params.List...)
			for _, field := range lists {
				for _, name := range field.Names {
					own[info.Defs[name]] = true
				}
			}
		}
		source := func(e ast.Expr) *types.Var {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if v, ok := info.Uses[sel.Sel].(*types.Var); ok && fields[v] != "" {
					return v
				}
			}
			return nil
		}
		target := func(e ast.Expr) *types.Var {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			v, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || fields[v] == "" {
				return nil
			}
			base := sel.X
			for {
				switch x := ast.Unparen(base).(type) {
				case *ast.StarExpr:
					base = x.X
					continue
				case *ast.Ident:
					if own[info.Uses[x]] {
						return nil
					}
				}
				return v
			}
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.Types[n].Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok && fields[v] != "" {
							writes = append(writes, optionWrite{v, source(kv.Value)})
						}
					} else if fields[st.Field(i)] != "" {
						writes = append(writes, optionWrite{st.Field(i), source(elt)})
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if v := target(lhs); v != nil {
						var src *types.Var
						if len(n.Lhs) == len(n.Rhs) {
							src = source(n.Rhs[i])
						}
						writes = append(writes, optionWrite{v, src})
					}
				}
			case *ast.IncDecStmt:
				if v := target(n.X); v != nil {
					writes = append(writes, optionWrite{v, nil})
				}
			}
			return true
		})
	}
	written := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			if !written[w.field] && (w.src == nil || written[w.src]) {
				written[w.field] = true
				changed = true
			}
		}
	}

	declared := map[string]*types.Var{}
	var keys []string
	for f, key := range fields {
		declared[key] = f
		if !written[f] {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		if optionAllowlist[key] == "" {
			t.Errorf("%s: no reached non-test code writes it and optionAllowlist does not name it", key)
		}
	}
	for key, why := range optionAllowlist {
		category, reason, _ := strings.Cut(why, ":")
		needReason, known := optionCategories[category]
		switch {
		case declared[key] == nil:
			t.Errorf("optionAllowlist names %s, which is not an exported option field", key)
		case written[declared[key]]:
			t.Errorf("optionAllowlist names %s, which reached code already writes", key)
		case !known || needReason && strings.TrimSpace(reason) == "":
			t.Errorf("optionAllowlist entry %s: %q names no category of optionCategories, or no reason where its category needs one", key, why)
		}
	}
	t.Logf("%d exported option fields, %d without a writer", len(fields), len(keys))
}
