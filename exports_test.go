package fedml_test

import (
	"fmt"
	"go/ast"
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
	"nn.FiniteDiffHVP": "test oracle: the finite-difference Hessian-vector product the exact HVPs are checked against",
	"nn.NumericalGrad": "test oracle: the central-difference gradient the analytic gradients are checked against",
	"obs.NewJSONLSink": "the writer seam: tests point a JSONL sink at an in-memory buffer through it",
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

// loadModule parses every non-test Go file of the module once (cmd/,
// examples/ and bench/ included); both guards read this one parse.
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

// TestNoTestOnlyExports fails for any exported function or method declared
// in a non-test file under internal/ whose name appears in no non-test Go
// file of the module (cmd/, examples/ and bench/ included) outside its own
// declaration or inside another such function. Such a function is surface
// that only tests reach: delete it, or add it to exportAllowlist with its
// reason.
//
// The check is by name, not by type: a call to any function, method or
// interface method of the same name counts as a use, so a colliding name can
// hide a dead export.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key        string // "pkg.Name" or "pkg.Recv.Name"
		name       string
		file       string
		start, end token.Pos
	}
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	var decls []decl
	uses := map[string][]token.Pos{} // identifier name → positions, declaration names excluded
	for _, sf := range m.files {
		f := sf.file
		declNames := map[*ast.Ident]bool{}
		if strings.HasPrefix(sf.path, "internal/") {
			for _, fd := range f.Decls {
				fn, ok := fd.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				declNames[fn.Name] = true
				key := f.Name.Name + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key = f.Name.Name + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key: key, name: fn.Name.Name, file: sf.path, start: fn.Pos(), end: fn.End()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}
	// A use inside a dead declaration is no use, so repeat until nothing
	// new dies: a helper reached only from a test-only wrapper goes too.
	isDead := make([]bool, len(decls))
	inDead := func(p token.Pos) bool {
		for i, d := range decls {
			if isDead[i] && p >= d.start && p < d.end {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if _, ok := exportAllowlist[d.key]; ok || isDead[i] {
				continue
			}
			used := false
			for _, p := range uses[d.name] {
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
	var dead []string
	for i, d := range decls {
		if isDead[i] {
			dead = append(dead, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but only tests call it: %s", d)
	}
	for key := range exportAllowlist {
		found := false
		for _, d := range decls {
			found = found || d.key == key
		}
		if !found {
			t.Errorf("exportAllowlist names %s, which is not declared under internal/", key)
		}
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
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unset, err := unsetFields(m.fset, modulePath, m.files)
	if err != nil {
		t.Fatal(err)
	}
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
	src := map[string]string{
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
	}
	fset := token.NewFileSet()
	var files []srcFile
	for p, s := range src {
		f, err := parser.ParseFile(fset, p, s, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path: p, file: f})
	}
	got, err := unsetFields(fset, "example.com/m", files)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"cfg.Adam.Eps", "cfg.Config.Time"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unset fields = %v, want %v", got, want)
	}
}

// unsetFields type-checks the module's non-test files and returns, sorted as
// "pkg.Type.Field", every exported field of an exported struct type declared
// under internal/ that none of the files sets. A field is set by a keyed or
// positional composite literal, by an assignment or ++/-- whose target
// selects it, or by taking its address with &. Module packages are checked
// from source in dependency order; the standard library comes from its
// export data.
func unsetFields(fset *token.FileSet, modPath string, files []srcFile) ([]string, error) {
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

	set := map[*types.Var]bool{}
	setSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				set[s.Obj().(*types.Var).Origin()] = true
			}
		}
	}
	for _, sf := range files {
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
	for _, ip := range ips {
		if !strings.HasPrefix(ip, modPath+"/internal/") {
			continue
		}
		scope := checked[ip].Scope()
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
					unset = append(unset, checked[ip].Name()+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(unset)
	return unset, nil
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
