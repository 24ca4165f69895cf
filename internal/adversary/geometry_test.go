package adversary

import (
	"testing"

	"meshroute/internal/workload"
)

// geometries builds one small instance of every geometry and parameter of
// the engine.
func geometries(t *testing.T) map[string]*Construction {
	t.Helper()
	out := map[string]*Construction{}
	for name, mk := range map[string]func() (*Construction, error){
		"general":        func() (*Construction, error) { return NewConstruction(120, 1) },
		"hh":             func() (*Construction, error) { return NewHHConstruction(60, 1, 2) },
		"delta":          func() (*Construction, error) { return NewDeltaConstruction(480, 1, 1) },
		"dimorder":       func() (*Construction, error) { return NewDOConstruction(60, 1) },
		"farthest-first": func() (*Construction, error) { return NewFFConstruction(64, 1) },
	} {
		c, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = c
	}
	return out
}

// TestRosterRolesMatchDestinations: the roster (which places packets) and
// kindOf (which classifies destinations, and which Verify and the renderers
// use) are written separately for every geometry; they must agree, every
// source must lie in the 1-box and every destination outside its i-box.
func TestRosterRolesMatchDestinations(t *testing.T) {
	for name, c := range geometries(t) {
		roster, err := c.buildRoster()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		perm := &workload.Permutation{}
		hard := 0
		for _, re := range roster {
			perm.Pairs = append(perm.Pairs, workload.Pair{Src: c.node(re.src.X, re.src.Y), Dst: c.node(re.dst.X, re.dst.Y)})
			if !c.inBox(re.src, 1) {
				t.Fatalf("%s: source %v outside the 1-box", name, re.src)
			}
			kind, i := c.kindOf(c.node(re.dst.X, re.dst.Y))
			if kind != re.kind || i != re.i {
				t.Fatalf("%s: roster says %v_%d for destination %v, kindOf says %v_%d", name, re.kind, re.i, re.dst, kind, i)
			}
			if re.kind == KindNone {
				if re.src != re.dst {
					t.Fatalf("%s: padding %v -> %v is not a fixed point", name, re.src, re.dst)
				}
				continue
			}
			hard++
			if c.inBoxKind(re.dst, re.kind, re.i) {
				t.Fatalf("%s: %v_%d destination %v inside its box", name, re.kind, re.i, re.dst)
			}
		}
		want := c.Par.L * c.Par.P // N_i-packets
		if c.geometry == General {
			want *= 2 // and E_i-packets
		}
		if hard != want {
			t.Fatalf("%s: %d construction packets, want %d", name, hard, want)
		}
		if c.H == 1 {
			if err := perm.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestExtensionsRejectedOutsideGeneral: the h-h and delta-stray
// extensions exist only for the general geometry, so Run refuses them on the
// dimension-order and farthest-first constructions instead of building a
// non-permutation or checking the wrong stray bound.
func TestExtensionsRejectedOutsideGeneral(t *testing.T) {
	for _, mk := range []func(n, k int) (*Construction, error){NewDOConstruction, NewFFConstruction} {
		for _, set := range []func(c *Construction){
			func(c *Construction) { c.H = 2 },
			func(c *Construction) { c.Delta = 1 },
		} {
			c, err := mk(128, 2)
			if err != nil {
				t.Fatal(err)
			}
			set(c)
			if _, err := c.Run(dimOrderFactory()); err == nil {
				t.Fatalf("%v: Run accepted H=%d Delta=%d", c.geometry, c.H, c.Delta)
			}
		}
	}
}
