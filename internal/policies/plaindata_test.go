package policies

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestPoliciesArePlainData holds the package to the rule that keeps a
// policy inside the Section 2 model (see the package doc), then checks the
// rule on one fixture per way around it. A policy that captured the engine
// (a *sim.Network, a sim.PacketStore) or kept state of its own would need
// an import, a field, a receiver or a variable that the rule refuses.
func TestPoliciesArePlainData(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	pkg, err := imp.Import("meshroute/internal/policies")
	if err != nil {
		t.Fatal(err)
	}
	if b := breaches(pkg); len(b) > 0 {
		t.Errorf("package policies breaks the rule: %s", strings.Join(b, "; "))
	}

	fixtures := []struct{ src, want string }{
		{`import "meshroute/internal/sim"
type hidden struct{ cache map[int][]func() *sim.PacketStore }
type Leaky struct{ h *hidden }`, "type Leaky is not plain data"},
		{`type ZigZag struct{ FaultAware bool; memo any }`, "type ZigZag is not plain data"},
		{`import "meshroute/internal/dex"
var saved *dex.NodeCtx`, "package variable saved"},
		{`type Counting struct{ n int }
func (c *Counting) Update() { c.n++ }`, "pointer receiver on Counting.Update"},
		{`import "meshroute/internal/sim"
type Queues struct{ Model sim.QueueModel }`, "imports meshroute/internal/sim"},
	}
	for _, fx := range fixtures {
		f, err := parser.ParseFile(fset, "fixture.go", "package fixture\n"+fx.src, 0)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := (&types.Config{Importer: imp}).Check("fixture", fset, []*ast.File{f}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b := breaches(fp); !strings.Contains(strings.Join(b, "; "), fx.want) {
			t.Errorf("fixture %q: breaches %q, want %q", fx.src, b, fx.want)
		}
	}
}

// breaches lists how pkg breaks the rule: an import outside dex, grid and
// math/bits; a declared type that is not plain data; a method with a
// pointer receiver; a named package-level variable.
func breaches(pkg *types.Package) []string {
	var out []string
	for _, p := range pkg.Imports() {
		switch p.Path() {
		case "math/bits", "meshroute/internal/dex", "meshroute/internal/grid":
		default:
			out = append(out, "imports "+p.Path())
		}
	}
	for _, name := range pkg.Scope().Names() {
		switch o := pkg.Scope().Lookup(name).(type) {
		case *types.Var:
			out = append(out, "package variable "+name)
		case *types.TypeName:
			if !plain(o.Type()) {
				out = append(out, "type "+name+" is not plain data")
			}
			if n, ok := o.Type().(*types.Named); ok {
				for i := range n.NumMethods() {
					if _, ptr := n.Method(i).Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						out = append(out, "pointer receiver on "+name+"."+n.Method(i).Name())
					}
				}
			}
		}
	}
	return out
}

// plain reports whether t is plain data: basic, or an array or struct of
// plain data. Pointers, slices, maps, channels, funcs and interfaces are not.
func plain(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Array:
		return plain(u.Elem())
	case *types.Struct:
		for i := range u.NumFields() {
			if !plain(u.Field(i).Type()) {
				return false
			}
		}
		return true
	}
	return false
}
