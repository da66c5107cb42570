package groupcast_test

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

// TestExportedAPIHasCallers pins that every exported top-level function,
// method, type, constant and variable under internal/ is used by non-test
// code: this module's packages, commands and examples, or the benchmark
// module in internal/bench. A name used only by its own tests is dead API;
// give it a caller or delete it. The node's exported view methods count
// through the /debug endpoints (internal/introspect), groupcast-top and the
// commands like any other name.
//
// The match is by identifier name, comments excluded, so a clash can hide a
// dead name: a use of any X counts for every declared X. A method that only
// the standard library calls through an interface (String, ServeHTTP, Less)
// would need an allowlist entry; none does today, because each such name
// also appears as a use somewhere.
func TestExportedAPIHasCallers(t *testing.T) {
	allow := map[string]string{
		"wire.DecodeMessage": "the decoder FuzzDecodeMessage and the golden wire vectors check",
	}
	type decl struct {
		name     string // pkg.Name or pkg.Type.Method
		ident    string
		pos      token.Position
		from, to token.Pos // the declaration's own span
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		ast.Inspect(f, func(nd ast.Node) bool {
			if id, ok := nd.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || f.Name.Name == "main" {
			return nil
		}
		add := func(id *ast.Ident, qual string, span ast.Node) {
			if id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + qual + id.Name, id.Name, fset.Position(id.Pos()), span.Pos(), span.End()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				qual := ""
				if d.Recv != nil {
					qual = receiverType(d.Recv) + "."
				}
				add(d.Name, qual, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, "", s)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].name < decls[j].name })
	for _, d := range decls {
		used := false
		for _, p := range uses[d.ident] {
			if fset.File(p) != fset.File(d.from) || p < d.from || p >= d.to {
				used = true
				break
			}
		}
		_, allowed := allow[d.name]
		switch {
		case used && allowed:
			t.Errorf("%s has a caller now; take it off the allowlist", d.name)
		case !used && !allowed:
			t.Errorf("%s: %s has no caller outside tests; give it one or delete it", d.pos, d.name)
		}
		delete(allow, d.name)
	}
	for name := range allow {
		t.Errorf("allowlist entry %s names nothing declared", name)
	}
}

// receiverType names the type of a method's receiver, without pointer or
// type parameters.
func receiverType(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
