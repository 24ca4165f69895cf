package routers

import (
	"reflect"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// TestRegistryFacts holds each registry entry's derived facts to the
// router's own code: every constructor a router has builds it on the dex
// adapter exactly when the entry is destination-exchangeable, and then on
// a policy of package policies (so TestPoliciesArePlainData covers every
// destination-exchangeable router); its Config sets RequireMinimal and the
// queue model as Config(nil, 1) does on every topology and k. Only
// stray-dimorder carries a MaxStray budget. ExampleRouterNames pins the
// classification itself.
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
			ad, ok := a.(*dex.Adapter)
			if ok != s.DestinationExchangeable() {
				t.Errorf("%s: variant %T is an adapter: %v, dex=%v", name, a, ok, s.DestinationExchangeable())
			}
			if ok && reflect.TypeOf(ad.P).PkgPath() != "meshroute/internal/policies" {
				t.Errorf("%s: adapter runs %T, not a policy of package policies", name, ad.P)
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
