package routers

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// TestRegistryFacts holds each registry entry's derived facts to the
// router's own code: every constructor a router has builds it on the dex
// adapter exactly when the entry is destination-exchangeable, and its
// Config sets RequireMinimal and the queue model as Config(nil, 1) does on
// every topology and k. Only stray-dimorder carries a MaxStray budget.
// ExampleRouterNames pins the classification itself.
func TestRegistryFacts(t *testing.T) {
	topos := []grid.Topology{grid.NewSquareMesh(6), grid.NewSquareTorus(6), grid.NewMesh(3, 5)}
	for _, name := range Names() {
		s, _ := Lookup(name)
		if s.Name != name {
			t.Errorf("%s: spec name %q", name, s.Name)
		}
		variants := []sim.Algorithm{s.New()}
		if s.NewFaultAware != nil {
			variants = append(variants, s.NewFaultAware())
		}
		if s.NewSeeded != nil {
			variants = append(variants, s.NewSeeded(7, false))
		}
		for _, a := range variants {
			if _, ok := a.(*dex.Adapter); ok != s.DestinationExchangeable() {
				t.Errorf("%s: variant %T is an adapter: %v, dex=%v", name, a, ok, s.DestinationExchangeable())
			}
		}
		for _, topo := range topos {
			for _, k := range []int{1, 2, 5} {
				cfg := s.Config(topo, k)
				if cfg.RequireMinimal != s.Minimal() || cfg.Queues != s.Queues() {
					t.Errorf("%s on %v k=%d: RequireMinimal=%v Queues=%v, Config(nil, 1) says %v %v",
						name, topo, k, cfg.RequireMinimal, cfg.Queues, s.Minimal(), s.Queues())
				}
				if (cfg.MaxStray > 0) != (name == NameStrayDimOrder) || (cfg.MaxStray > 0 && cfg.RequireMinimal) {
					t.Errorf("%s: MaxStray=%d RequireMinimal=%v", name, cfg.MaxStray, cfg.RequireMinimal)
				}
			}
		}
	}
}

// TestPoliciesCaptureNoNetwork closes the one way around the dex boundary
// that the NodeCtx accessors leave open: a policy value holding the engine
// itself. No type of this package that implements dex.Policy may have a
// field whose type reaches *sim.Network or sim.PacketStore (through
// pointers, containers, structs, function signatures or interface
// methods). A type declared in a test source checks the walker.
func TestPoliciesCaptureNoNetwork(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	pkg, err := imp.Import("meshroute/internal/routers")
	if err != nil {
		t.Fatal(err)
	}
	dexPkg, err := imp.Import("meshroute/internal/dex")
	if err != nil {
		t.Fatal(err)
	}
	policy := dexPkg.Scope().Lookup("Policy").Type().Underlying().(*types.Interface)

	checked := 0
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		if !types.Implements(tn.Type(), policy) && !types.Implements(types.NewPointer(tn.Type()), policy) {
			continue
		}
		checked++
		if path := capture(tn.Type().Underlying(), map[types.Type]bool{}); path != "" {
			t.Errorf("policy %s reaches %s", name, path)
		}
	}
	t.Logf("%d policies checked", checked)
	if checked < 5 {
		t.Fatalf("found %d policies, want at least the five registry ones", checked)
	}

	const leaky = `package leak
import "meshroute/internal/sim"
type hidden struct{ cache map[int][]func() *sim.PacketStore }
type Leaky struct{ h *hidden }`
	f, err := parser.ParseFile(fset, "leak.go", leaky, 0)
	if err != nil {
		t.Fatal(err)
	}
	conf := types.Config{Importer: imp.(types.ImporterFrom)}
	lp, err := conf.Check("leak", fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if capture(lp.Scope().Lookup("Leaky").Type().Underlying(), map[types.Type]bool{}) == "" {
		t.Fatal("the checker misses a PacketStore behind a map of functions")
	}
}

// capture returns the name of the engine type t reaches, or "".
func capture(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if o := t.Obj(); o.Pkg() != nil && o.Pkg().Path() == "meshroute/internal/sim" &&
			(o.Name() == "Network" || o.Name() == "PacketStore") {
			return "sim." + o.Name()
		}
		return capture(t.Underlying(), seen)
	case *types.Pointer:
		return capture(t.Elem(), seen)
	case *types.Slice:
		return capture(t.Elem(), seen)
	case *types.Array:
		return capture(t.Elem(), seen)
	case *types.Chan:
		return capture(t.Elem(), seen)
	case *types.Map:
		if p := capture(t.Key(), seen); p != "" {
			return p
		}
		return capture(t.Elem(), seen)
	case *types.Struct:
		for i := range t.NumFields() {
			if p := capture(t.Field(i).Type(), seen); p != "" {
				return p
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tup.Len() {
				if p := capture(tup.At(i).Type(), seen); p != "" {
					return p
				}
			}
		}
	case *types.Interface:
		for i := range t.NumMethods() {
			if p := capture(t.Method(i).Type(), seen); p != "" {
				return p
			}
		}
	}
	return ""
}
