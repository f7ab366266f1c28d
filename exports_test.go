package fedml_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported functions under internal/ that may have
// no non-test caller, each with the reason it stays.
var exportAllowlist = map[string]string{
	"meta.Grad":          "test reference: alloc_test.go checks the workspace's meta-gradient against it",
	"meta.InnerStep":     "test reference: alloc_test.go checks the workspace's inner step against it",
	"meta.Objective":     "test reference: alloc_test.go checks the workspace's objective against it",
	"meta.Step":          "test reference: meta_test.go checks one Algorithm 1 step with it, and BenchmarkMetaStep, which BENCH_fedml.json gates, measures it",
	"nn.FiniteDiffHVP":   "test oracle: the finite-difference Hessian-vector product the exact HVPs are checked against",
	"nn.NumericalGrad":   "test oracle: the central-difference gradient the analytic gradients are checked against",
	"obs.NewJSONLSink":   "the writer seam: tests point a JSONL sink at an in-memory buffer through it",
	"obs.Recorder.Count": "the tests of four packages count a run's events by type through it",
}

// fieldAllowlist names the exported struct fields under internal/ that may
// have no non-test writer, each with the reason it stays.
var fieldAllowlist = map[string]string{
	"theory.Constants.C":                "the theory package's constants stay until ROADMAP item 15 decides that package",
	"theory.Constants.Rho":              "the theory package's constants stay until ROADMAP item 15 decides that package",
	"theory.Constants.Sigma":            "the theory package's constants stay until ROADMAP item 15 decides that package",
	"theory.Constants.Tau":              "the theory package's constants stay until ROADMAP item 15 decides that package",
	"experiments.ExtTimeConfig.TargetG": "BenchmarkExtTimeToTarget pins it, and BENCH_fedml.json gates that benchmark",
}

// srcFile is one parsed non-test Go file; path is slash-separated and
// relative to the module root.
type srcFile struct {
	path string
	file *ast.File
}

// module is the parse of every non-test Go file of the module.
type module struct {
	fset  *token.FileSet
	files []srcFile
}

// loadModule parses every non-test Go file of the module that this build
// compiles, once (cmd/, examples/ and bench/ included); both guards read
// this one parse.
var loadModule = sync.OnceValues(func() (module, error) {
	m := module{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		// Only the files this build compiles: a package may declare one
		// name per GOARCH (internal/tensor's kernels_amd64.go and
		// kernels_other.go), and the type check sees one of them.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.files = append(m.files, srcFile{path: filepath.ToSlash(p), file: f})
		return nil
	})
	return m, err
})

// modulePath is the module line of go.mod.
const modulePath = "github.com/edgeai/fedml"

// loadTyped is the type check of loadModule's parse, once; both guards read
// it.
var loadTyped = sync.OnceValues(func() (*typedModule, error) {
	m, err := loadModule()
	if err != nil {
		return nil, err
	}
	return typeCheck(m.fset, modulePath, m.files)
})

// TestNoTestOnlyExports fails for any exported function or method declared
// in a non-test file under internal/ that no non-test Go file of the module
// (cmd/, examples/ and bench/ included) uses outside its own declaration or
// inside another such function. Such a function is surface that only tests
// reach: delete it, or add it to exportAllowlist with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	tm, err := loadTyped()
	if err != nil {
		t.Fatal(err)
	}
	dead, decls := tm.deadExports(exportAllowlist)
	for _, d := range dead {
		t.Errorf("exported but only tests call it: %s", d)
	}
	for key := range exportAllowlist {
		if !decls[key] {
			t.Errorf("exportAllowlist names %s, which is not declared under internal/", key)
		}
	}
}

// TestDeadExportsIsTyped runs the export guard on an in-memory module where
// two functions and two methods share a name and only one of each pair is
// called. A check by name would pass all four; the guard must name the
// other two, and the wrapper that alone calls one of them. A method that
// satisfies an interface of the module counts as used.
func TestDeadExportsIsTyped(t *testing.T) {
	tm := checkFixture(t, map[string]string{
		"internal/a/a.go": `package a
func Run() int { return 1 }
type Shape interface{ Area() float64 }
type Sq struct{}
func (Sq) Area() float64      { return 1 }
func (Sq) Perimeter() float64 { return 4 }
`,
		"internal/b/b.go": `package b
func Run() int  { return 2 }
func Wrap() int { return Run() }
type Circle struct{}
func (Circle) Area() float64      { return 3 }
func (Circle) Perimeter() float64 { return 6 }
`,
		"cmd/m/main.go": `package main
import (
	"fmt"
	"example.com/m/internal/a"
	"example.com/m/internal/b"
)
func main() {
	var s a.Shape = a.Sq{}
	fmt.Println(a.Run(), s.Area(), b.Circle{}.Perimeter())
}
`,
	})
	got, _ := tm.deadExports(nil)
	want := []string{"a.Sq.Perimeter", "b.Run", "b.Wrap"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dead exports = %v, want %v", got, want)
	}
}

// deadExports returns, sorted as "pkg.Name" or "pkg.Recv.Name", every
// exported function or method declared under internal/ that the module's
// files use only inside its own declaration or inside another dead one;
// the functions keep names stay alive. decls holds the key of every
// exported function and method declared there. A use is an identifier the
// type checker resolves to the function. A method is also used when its
// receiver type implements an interface, declared or referenced in the
// module, that has a method of its name: a call through the interface
// reaches it.
func (tm *typedModule) deadExports(keep map[string]string) (dead []string, decls map[string]bool) {
	type decl struct {
		key        string
		fn         *types.Func
		start, end token.Pos
	}
	var ds []decl
	for _, sf := range tm.files {
		if !strings.HasPrefix(sf.path, "internal/") {
			continue
		}
		for _, fd := range sf.file.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := sf.file.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				key = sf.file.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			ds = append(ds, decl{key: key, fn: tm.info.Defs[fn.Name].(*types.Func), start: fn.Pos(), end: fn.End()})
		}
	}
	uses := map[*types.Func][]token.Pos{}
	for id, obj := range tm.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
		}
	}
	viaInterface := tm.interfaceMethods()
	isDead := make([]bool, len(ds))
	inDead := func(p token.Pos) bool {
		for i, d := range ds {
			if isDead[i] && p >= d.start && p < d.end {
				return true
			}
		}
		return false
	}
	// A use inside a dead declaration is no use, so repeat until nothing
	// new dies: a helper reached only from a test-only wrapper goes too.
	for changed := true; changed; {
		changed = false
		for i, d := range ds {
			if _, ok := keep[d.key]; ok || isDead[i] || viaInterface(d.fn) {
				continue
			}
			used := false
			for _, p := range uses[d.fn] {
				if (p < d.start || p >= d.end) && !inDead(p) {
					used = true
					break
				}
			}
			if !used {
				isDead[i], changed = true, true
			}
		}
	}
	decls = map[string]bool{}
	for i, d := range ds {
		decls[d.key] = true
		if isDead[i] {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, decls
}

// interfaceMethods reports whether a method's receiver type implements an
// interface, declared or referenced in the module, that has the method.
func (tm *typedModule) interfaceMethods() func(*types.Func) bool {
	ifaces := map[*types.Interface]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, obj := range tm.info.Uses {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, obj := range tm.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			add(tn.Type())
		}
	}
	for _, tv := range tm.info.Types {
		add(tv.Type)
	}
	return func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
					return true
				}
			}
		}
		return false
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
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
			return "?"
		}
	}
}

// TestNoTestOnlyFields fails for any exported field of an exported struct
// type declared under internal/ that no non-test Go file of the module
// (cmd/, examples/ and bench/ included) sets. Such a field is an option only
// tests turn: delete it and keep its default as the only path, or add it to
// fieldAllowlist with its reason.
func TestNoTestOnlyFields(t *testing.T) {
	tm, err := loadTyped()
	if err != nil {
		t.Fatal(err)
	}
	unset := tm.unsetFields()
	found := map[string]bool{}
	for _, key := range unset {
		found[key] = true
		if reason, ok := fieldAllowlist[key]; ok {
			t.Logf("allowlisted, no non-test code sets: %s (%s)", key, reason)
		} else {
			t.Errorf("exported field no non-test code sets: %s", key)
		}
	}
	for key := range fieldAllowlist {
		if !found[key] {
			t.Errorf("fieldAllowlist names %s, which is not an unset exported field under internal/", key)
		}
	}
}

// TestUnsetFieldsIsTyped runs the field guard on an in-memory module where
// two structs share a field name and only one of them is set. A check by
// name would pass both; the guard must name the other.
func TestUnsetFieldsIsTyped(t *testing.T) {
	tm := checkFixture(t, map[string]string{
		"internal/cfg/cfg.go": `package cfg
type Config struct{ Time, Seed int }
type Result struct{ Time int }
type Adam struct{ LR, Eps float64 }
type Reptile struct{ Eps float64 }
type Pair struct{ A, B int }
type Counter struct{ N int }
type hidden struct{ X int }
var _ = hidden{}
`,
		"internal/run/run.go": `package run
import "example.com/m/internal/cfg"
func Run(c cfg.Config) (r cfg.Result) {
	r.Time = c.Time + c.Seed
	var n cfg.Counter
	n.N++
	_ = cfg.Pair{1, 2}
	_ = cfg.Reptile{Eps: 1}
	return r
}
`,
		"cmd/m/main.go": `package main
import (
	"fmt"
	"example.com/m/internal/cfg"
	"example.com/m/internal/run"
)
func main() {
	a := cfg.Adam{}
	p := &a.LR
	*p = 0.1
	fmt.Println(run.Run(cfg.Config{Seed: 1}), a)
}
`,
	})
	got := tm.unsetFields()
	want := []string{"cfg.Adam.Eps", "cfg.Config.Time"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unset fields = %v, want %v", got, want)
	}
}

// checkFixture parses and type-checks an in-memory module, example.com/m,
// given as file path → source.
func checkFixture(t *testing.T, src map[string]string) *typedModule {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for p, s := range src {
		f, err := parser.ParseFile(fset, p, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path: p, file: f})
	}
	tm, err := typeCheck(fset, "example.com/m", files)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// typedModule is the type check of a module's non-test files.
type typedModule struct {
	modPath string
	files   []srcFile
	info    *types.Info
	// pkgs are the module's packages by import path; ips their sorted
	// import paths.
	pkgs map[string]*types.Package
	ips  []string
}

// typeCheck type-checks the module's non-test files. Module packages are
// checked from source in dependency order; the standard library comes from
// its export data.
func typeCheck(fset *token.FileSet, modPath string, files []srcFile) (*typedModule, error) {
	byPkg := map[string][]*ast.File{}
	for _, sf := range files {
		dir := path.Dir(sf.path)
		ip := modPath
		if dir != "." {
			ip += "/" + dir
		}
		byPkg[ip] = append(byPkg[ip], sf.file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var stdPaths []string
	for _, sf := range files {
		for _, im := range sf.file.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			if _, ok := byPkg[ip]; !ok {
				stdPaths = append(stdPaths, ip)
			}
		}
	}
	std, err := stdImporter(fset, stdPaths)
	if err != nil {
		return nil, err
	}
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(ip string) (*types.Package, error) {
		if p, ok := checked[ip]; ok {
			return p, nil
		}
		return std.Import(ip)
	})}
	var check func(ip string) error
	check = func(ip string) error {
		if checked[ip] != nil {
			return nil
		}
		for _, f := range byPkg[ip] {
			for _, im := range f.Imports {
				dep, _ := strconv.Unquote(im.Path.Value)
				if _, ok := byPkg[dep]; ok {
					if err := check(dep); err != nil {
						return err
					}
				}
			}
		}
		p, err := conf.Check(ip, fset, byPkg[ip], info)
		if err != nil {
			return err
		}
		checked[ip] = p
		return nil
	}
	ips := make([]string, 0, len(byPkg))
	for ip := range byPkg {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	for _, ip := range ips {
		if err := check(ip); err != nil {
			return nil, err
		}
	}
	return &typedModule{modPath: modPath, files: files, info: info, pkgs: checked, ips: ips}, nil
}

// unsetFields returns, sorted as "pkg.Type.Field", every exported field of
// an exported struct type declared under internal/ that none of the
// module's files sets. A field is set by a keyed or positional composite
// literal, by an assignment or ++/-- whose target selects it, or by taking
// its address with &.
func (tm *typedModule) unsetFields() []string {
	info := tm.info
	set := map[*types.Var]bool{}
	setSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				set[s.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	for _, sf := range tm.files {
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				st, _ := info.Types[x].Type.Underlying().(*types.Struct)
				if st == nil {
					if ptr, ok := info.Types[x].Type.Underlying().(*types.Pointer); ok {
						st, _ = ptr.Elem().Underlying().(*types.Struct)
					}
				}
				if st == nil {
					break
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							set[v.Origin()] = true
						}
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					setSel(lhs)
				}
			case *ast.IncDecStmt:
				setSel(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					setSel(x.X)
				}
			}
			return true
		})
	}

	var unset []string
	for _, ip := range tm.ips {
		if !strings.HasPrefix(ip, tm.modPath+"/internal/") {
			continue
		}
		scope := tm.pkgs[ip].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !set[f] {
					unset = append(unset, tm.pkgs[ip].Name()+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	return unset
}

// stdImporter reads the standard library's packages from their gc export
// data. importer.Default() finds that data with one `go list` run per
// package, about 3 s for this module's imports; one run for all of them
// takes a tenth of a second.
func stdImporter(fset *token.FileSet, paths []string) (types.Importer, error) {
	out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ip, file, _ := strings.Cut(line, "=")
		exports[ip] = file
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	}), nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
