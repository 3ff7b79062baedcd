package pfair_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoWallClockAssertion keeps tier-1 free of timing gates: no _test.go
// file of the module outside a *bench_test.go compares a time.Since result
// — directly, through a variable assigned from one, or through a method of
// either (d.Seconds()) — with <, <=, > or >=. Host load moves such a
// comparison, so a test that makes one flakes; measure the property by a
// count, an order or a fake clock, and leave timings to logs and benchmarks.
func TestNoWallClockAssertion(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "bench" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") || strings.HasSuffix(path, "bench_test.go") {
			return nil
		}
		files++
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch b.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if elapsed(b.X, timePkg) || elapsed(b.Y, timePkg) {
					t.Errorf("%s: compares a time.Since result with a bound", fset.Position(b.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed %d test files, want the module's", files)
	}
}

// elapsed reports whether e is a time.Since call, a variable assigned from
// one, or a method call on either.
func elapsed(e ast.Expr, timePkg string) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == timePkg && sel.Sel.Name == "Since" {
			return true
		}
		return elapsed(sel.X, timePkg)
	case *ast.Ident:
		if e.Obj == nil || e.Obj.Kind != ast.Var {
			return false
		}
		var names []*ast.Ident
		var values []ast.Expr
		switch decl := e.Obj.Decl.(type) {
		case *ast.AssignStmt:
			values = decl.Rhs
			for _, l := range decl.Lhs {
				id, _ := l.(*ast.Ident)
				names = append(names, id)
			}
		case *ast.ValueSpec:
			names, values = decl.Names, decl.Values
		}
		for i, id := range names {
			if id != nil && id.Name == e.Name && len(values) == len(names) {
				return elapsed(values[i], timePkg)
			}
		}
	}
	return false
}
