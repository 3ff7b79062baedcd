package cluster

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

// TestOneHTTPClient: no production code of this package or of a command
// sends HTTP through net/http's client. Every outbound call goes through a
// hop.Upstream, the one transport seam a test can replace, so a non-test file
// of internal/cluster or cmd/ that names http.Client, http.DefaultClient, a
// Transport, http.Get, http.Head, http.Post, http.PostForm or
// http.NewRequest* fails it.
func TestOneHTTPClient(t *testing.T) {
	dirs, err := filepath.Glob("../../cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, dir := range append(dirs, ".") {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				files++
				http := ""
				for _, imp := range f.Imports {
					if path, _ := strconv.Unquote(imp.Path.Value); path == "net/http" {
						http = "http"
						if imp.Name != nil {
							http = imp.Name.Name
						}
					}
				}
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == http && isClient(sel.Sel.Name) {
						t.Errorf("%s: %s.%s: send through a hop.Upstream", fset.Position(sel.Pos()), http, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d source files, want this package's and every command's", files)
	}
}

// isClient reports whether name, in net/http, is its client or sends through
// it.
func isClient(name string) bool {
	switch name {
	case "Client", "DefaultClient", "Transport", "DefaultTransport", "Get", "Head", "Post", "PostForm":
		return true
	}
	return strings.HasPrefix(name, "NewRequest")
}
