package fedml_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions under internal/ that may have
// no non-test caller, each with the reason it stays.
var exportAllowlist = map[string]string{
	"nn.FiniteDiffHVP": "test oracle: the finite-difference Hessian-vector product the exact HVPs are checked against",
	"nn.NumericalGrad": "test oracle: the central-difference gradient the analytic gradients are checked against",
	"obs.NewJSONLSink": "the writer seam: tests point a JSONL sink at an in-memory buffer through it",
}

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
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{} // identifier name → positions, declaration names excluded
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declNames := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
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
				decls = append(decls, decl{key: key, name: fn.Name.Name, file: path, start: fn.Pos(), end: fn.End()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declNames[id] {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
			dead = append(dead, d.key+" ("+filepath.ToSlash(d.file)+")")
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
