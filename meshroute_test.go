package meshroute

import (
	"errors"
	"testing"

	"meshroute/internal/bounds"
)

func TestRouteAllRoutersRandom(t *testing.T) {
	topo := NewMesh(12)
	perm := RandomPermutation(topo, 42)
	for _, name := range RouterNames() {
		k := 4
		if name == RouterThm15 {
			k = 1
		}
		st, err := Route(name, topo, k, perm, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.Done || st.Delivered != st.Total {
			t.Fatalf("%s: %d/%d delivered", name, st.Delivered, st.Total)
		}
		if st.Makespan < 1 {
			t.Fatalf("%s: bad makespan %d", name, st.Makespan)
		}
	}
}

func TestLookupRouterErrors(t *testing.T) {
	if _, err := LookupRouter("nope"); err == nil {
		t.Fatal("unknown router must error")
	}
	spec, err := LookupRouter(RouterThm15)
	if err != nil || !spec.DestinationExchangeable() || !spec.Minimal() {
		t.Fatalf("thm15 spec wrong: %+v err=%v", spec, err)
	}
	hp, _ := LookupRouter(RouterHotPotato)
	if hp.Minimal() {
		t.Fatal("hot potato must be nonminimal")
	}
	ff, _ := LookupRouter(RouterFarthestFirst)
	if ff.DestinationExchangeable() {
		t.Fatal("farthest-first must not be destination-exchangeable")
	}
}

func TestHardPermutationPublicAPI(t *testing.T) {
	perm, bound, makespan, done, err := HardPermutation(120, 2, RouterDimOrder, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) == 0 || bound <= 0 {
		t.Fatalf("degenerate: %d pairs bound %d", len(perm), bound)
	}
	if done && makespan < bound {
		t.Fatalf("beat the bound: %d < %d", makespan, bound)
	}
}

func TestHardPermutationRejectsNonDex(t *testing.T) {
	if _, _, _, _, err := HardPermutation(120, 1, RouterFarthestFirst, 1000); err == nil {
		t.Fatal("farthest-first must be rejected by the Theorem 14 pipeline")
	}
	if _, _, _, _, err := HardPermutation(120, 1, RouterThm15, 1000); err == nil {
		t.Fatal("per-inlink router must be redirected to the adversary package")
	}
}

func TestRouteCLTPublicAPI(t *testing.T) {
	n := 27
	perm := Transpose(NewMesh(n))
	res, err := RouteCLT(n, perm, CLTOptions{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	in := bounds.Instance{Topo: NewMesh(n)}
	if err := errors.Join(bounds.Check(in, res.TimeFormula, bounds.Theorem34), bounds.Check(in, res.MaxQueue, bounds.Lemma28)); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadsViaFacade(t *testing.T) {
	topo := NewMesh(8)
	for _, p := range []*Permutation{
		RandomPermutation(topo, 1),
		Transpose(topo),
		Reversal(topo),
		BitReversal(topo),
		Rotation(topo, 1, 2),
	} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// A 2-2 instance is a pair list with every node twice a source.
	hh := RandomHH(topo, 2, 3)
	if len(hh.Pairs) != 2*64 || hh.Validate() == nil {
		t.Fatalf("RandomHH(8×8, h=2): %d pairs, Validate %v; want 128 pairs that are not one-to-one", len(hh.Pairs), hh.Validate())
	}
}

func TestTorusFacade(t *testing.T) {
	topo := NewTorus(8)
	perm := RandomPermutation(topo, 9)
	st, err := Route(RouterThm15, topo, 2, perm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("torus routing incomplete: %+v", st)
	}
}

func TestAdversaryFacade(t *testing.T) {
	c, err := NewAdversary(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := LookupRouter(RouterDimOrder)
	res, err := c.Run(spec.New())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("construction must leave packets undelivered")
	}
	if AdversaryMinN(1) != 216 {
		t.Fatal("MinN wrong")
	}
}

func TestRouteOptionsSeed(t *testing.T) {
	topo := NewMesh(12)
	perm := RandomPermutation(topo, 42)
	// Same seed → same run; across seeds the decision stream (and with it
	// the makespan, on at least one seed) must vary.
	base, err := RouteWithOptions(RouterRandZigZag, topo, 2, perm, RouteOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := RouteWithOptions(RouterRandZigZag, topo, 2, perm, RouteOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Makespan != again.Makespan || base.MaxQueue != again.MaxQueue {
		t.Fatalf("seed 1 not deterministic: %+v vs %+v", base, again)
	}
	varies := false
	for seed := uint64(2); seed <= 8; seed++ {
		st, err := RouteWithOptions(RouterRandZigZag, topo, 2, perm, RouteOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Done {
			t.Fatalf("seed %d: not done", seed)
		}
		if st.Makespan != base.Makespan {
			varies = true
		}
	}
	if !varies {
		t.Fatal("makespan identical across all seeds — seed not reaching the router")
	}
	if _, err := RouteWithOptions(RouterDimOrder, topo, 2, perm, RouteOptions{Seed: 5}); err == nil {
		t.Fatal("deterministic router must reject a seed")
	}
}
