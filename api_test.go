package exsample

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite api.txt from the current source")

// apiPackages are the module's public packages, as directories relative to
// the module root. Everything else lives under internal/, cmd/ or
// benchmark/ and is not importable surface.
var apiPackages = []string{
	".",
	"backend",
	"backend/httpbatch",
	"backend/router",
	"cachestore",
	"cachestore/httpcache",
}

// TestAPISurface pins the exported surface of the public packages to the
// committed api.txt: one sorted line per exported func, method, type,
// struct field, interface method, const and var. Any difference fails, so
// every surface change is a reviewed diff line. After an intended change,
// rewrite the file with
//
//	go test -run TestAPISurface . -update
func TestAPISurface(t *testing.T) {
	var lines []string
	for _, dir := range apiPackages {
		pl, err := packageAPI(dir)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, pl...)
	}
	sort.Strings(lines)
	got := []byte(strings.Join(lines, "\n") + "\n")
	if *updateAPI {
		if err := os.WriteFile("api.txt", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatalf("%v (create it with: go test -run TestAPISurface . -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	added, removed := lineDiff(lines, strings.Split(strings.TrimSuffix(string(want), "\n"), "\n"))
	for _, l := range added {
		t.Errorf("+ %s", l)
	}
	for _, l := range removed {
		t.Errorf("- %s", l)
	}
	t.Errorf("exported surface differs from api.txt; if the change is intended, rewrite it with: go test -run TestAPISurface . -update")
}

// lineDiff returns the lines of got missing from want and those of want
// missing from got.
func lineDiff(got, want []string) (added, removed []string) {
	in := func(set []string) map[string]bool {
		m := make(map[string]bool, len(set))
		for _, l := range set {
			m[l] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for _, l := range got {
		if !w[l] {
			added = append(added, l)
		}
	}
	for _, l := range want {
		if !g[l] {
			removed = append(removed, l)
		}
	}
	return added, removed
}

// packageAPI returns the surface lines of the non-test Go files in
// dir, each prefixed "pkg <dir>, " in the style of the Go project's api
// files. Parameter names are dropped from every signature, so only a change
// a caller can see shows up.
func packageAPI(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := dir
	if dir == "." {
		pkg = "exsample"
	}
	fset := token.NewFileSet()
	var lines []string
	emit := func(kind string, rest ...string) {
		lines = append(lines, "pkg "+pkg+", "+strings.Join(append([]string{kind}, rest...), " "))
	}
	expr := func(n ast.Node) string {
		var b strings.Builder
		if err := printer.Fprint(&b, fset, n); err != nil {
			panic(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ft, ok := n.(*ast.FuncType); ok {
				ft.Params = unnamed(ft.Params)
				ft.Results = unnamed(ft.Results)
			}
			return true
		})
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := strings.TrimPrefix(expr(d.Type), "func")
				if d.Recv == nil {
					emit("func", d.Name.Name+sig)
					continue
				}
				recv := d.Recv.List[0].Type
				base := recv
				if star, ok := base.(*ast.StarExpr); ok {
					base = star.X
				}
				if id, ok := base.(*ast.Ident); ok && id.IsExported() {
					emit("method", "("+expr(recv)+")", d.Name.Name+sig)
				}
			case *ast.GenDecl:
				typeAPI(d, expr, emit)
			}
		}
	}
	return lines, nil
}

// typeAPI emits the surface lines of one type, const or var declaration.
func typeAPI(d *ast.GenDecl, expr func(ast.Node) string, emit func(string, ...string)) {
	// An omitted const type and value list repeats the previous one (iota).
	var lastType ast.Expr
	var lastValues []ast.Expr
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			name := s.Name.Name
			switch t := s.Type.(type) {
			case *ast.StructType:
				emit("type", name, "struct")
				for _, f := range t.Fields.List {
					for _, fn := range fieldNames(f) {
						emit("type", name, "struct,", fn, expr(f.Type))
					}
				}
			case *ast.InterfaceType:
				emit("type", name, "interface")
				for _, m := range t.Methods.List {
					for _, fn := range fieldNames(m) {
						if ft, ok := m.Type.(*ast.FuncType); ok {
							emit("type", name, "interface,", fn+strings.TrimPrefix(expr(ft), "func"))
						} else {
							emit("type", name, "interface,", fn)
						}
					}
				}
			default:
				if s.Assign.IsValid() {
					emit("type", name, "=", expr(s.Type))
				} else {
					emit("type", name, expr(s.Type))
				}
			}
		case *ast.ValueSpec:
			if d.Tok == token.CONST && s.Type == nil && len(s.Values) == 0 {
				s.Type, s.Values = lastType, lastValues
			}
			lastType, lastValues = s.Type, s.Values
			for i, n := range s.Names {
				if !n.IsExported() {
					continue
				}
				switch {
				case s.Type != nil:
					emit(d.Tok.String(), n.Name, expr(s.Type))
				case i < len(s.Values):
					emit(d.Tok.String(), n.Name, "=", expr(s.Values[i]))
				default:
					emit(d.Tok.String(), n.Name)
				}
			}
		}
	}
}

// fieldNames returns the exported names a struct field or interface entry
// declares; an embedded one is named by its type.
func fieldNames(f *ast.Field) []string {
	var out []string
	if len(f.Names) == 0 {
		t := f.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if sel, ok := t.(*ast.SelectorExpr); ok {
			t = sel.Sel
		}
		if id, ok := t.(*ast.Ident); ok && id.IsExported() {
			out = append(out, "embedded "+id.Name)
		}
		return out
	}
	for _, n := range f.Names {
		if n.IsExported() {
			out = append(out, n.Name)
		}
	}
	return out
}

// unnamed returns fl with parameter names dropped, one field per
// parameter, so "a, b int" and "x int, y int" both print as "int, int".
func unnamed(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{Opening: fl.Opening, Closing: fl.Closing}
	for _, f := range fl.List {
		for range max(len(f.Names), 1) {
			out.List = append(out.List, &ast.Field{Type: f.Type})
		}
	}
	return out
}
