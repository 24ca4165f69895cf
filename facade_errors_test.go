package meshroute

import (
	"fmt"
	"strings"
	"testing"
)

func TestRouteUnknownRouter(t *testing.T) {
	topo := NewMesh(8)
	if _, err := Route("no-such-router", topo, 1, RandomPermutation(topo, 1), 0); err == nil {
		t.Fatal("unknown router must error")
	}
}

// Every router refuses k <= 0 with an error naming k, the hot-potato one
// included although its configuration ignores k.
func TestRouteRejectsNonPositiveK(t *testing.T) {
	topo := NewMesh(4)
	for _, router := range RouterNames() {
		for _, k := range []int{0, -1} {
			_, err := Route(router, topo, k, Transpose(topo), 0)
			if want := fmt.Sprintf("k=%d", k); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s at k=%d: error %v, want one naming %s", router, k, err, want)
			}
		}
	}
}

func TestRouteCLTBadSize(t *testing.T) {
	// 27·3^j and n < 27 are the only sides the tilings fit. The multiples
	// of 3 in this list used to pass New and panic inside Route.
	for _, n := range []int{28, 30, 32, 36, 45, 54, 63, 72, 90, 108, 135, 162, 244} {
		perm := RandomPermutation(NewMesh(n), 1)
		_, err := RouteCLT(n, perm, CLTOptions{})
		if err == nil || !strings.Contains(err.Error(), "not a power of 3") {
			t.Errorf("n=%d must be refused as not a power of 3, got %v", n, err)
		}
	}
}

// A permutation of a larger mesh, or one with a negative id, is an error
// naming the pair — not an index panic.
func TestRouteCLTPairOutsideMesh(t *testing.T) {
	if _, err := RouteCLT(27, RandomPermutation(NewMesh(81), 1), CLTOptions{}); err == nil ||
		!strings.Contains(err.Error(), "outside the 27×27 mesh") {
		t.Errorf("an 81×81 permutation on n=27: got %v", err)
	}
	for _, pair := range []Pair{{Src: 729, Dst: 0}, {Src: 0, Dst: 729}, {Src: -1, Dst: 5}, {Src: 5, Dst: -1}} {
		_, err := RouteCLT(27, &Permutation{Pairs: []Pair{{Src: 1, Dst: 2}, pair}}, CLTOptions{})
		if want := fmt.Sprintf("pair %d -> %d is outside", pair.Src, pair.Dst); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("pair %v: got %v, want an error containing %q", pair, err, want)
		}
	}
}

func TestHardPermutationBadParams(t *testing.T) {
	if _, _, _, _, err := HardPermutation(8, 1, RouterDimOrder, 100); err == nil {
		t.Fatal("tiny mesh must error")
	}
	if _, _, _, _, err := HardPermutation(120, 1, "nope", 100); err == nil {
		t.Fatal("unknown router must error")
	}
}

func TestStrayRouterViaFacade(t *testing.T) {
	topo := NewMesh(12)
	st, err := Route(RouterStray, topo, 3, RandomPermutation(topo, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("stray router must finish random permutations")
	}
}

func TestRandZigZagViaFacade(t *testing.T) {
	topo := NewMesh(12)
	st, err := Route(RouterRandZigZag, topo, 4, RandomPermutation(topo, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatal("randomized router must finish random permutations")
	}
}

func TestNewNetworkValidatesConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  NetworkConfig
		want string
	}{
		{"nil topo", NetworkConfig{K: 1}, "topology"},
		{"bad K", NetworkConfig{Topo: NewMesh(4), K: 0}, "queue capacity"},
		{"bad watchdog", NetworkConfig{Topo: NewMesh(4), K: 1, Watchdog: -1}, "watchdog"},
	}
	for _, c := range cases {
		net, err := NewNetwork(c.cfg)
		if err == nil || net != nil {
			t.Fatalf("%s: want error, got net=%v err=%v", c.name, net, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	if _, err := NewNetwork(NetworkConfig{Topo: NewMesh(4), K: 1}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNewNetworkRejectsMismatchedFaultSchedule(t *testing.T) {
	sched, err := GenerateFaults(NewMesh(8), FaultConfig{Seed: 1, Horizon: 50, LinkFailures: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(NetworkConfig{Topo: NewMesh(6), K: 2, Faults: sched}); err == nil {
		t.Fatal("schedule generated for an 8x8 mesh must be rejected on a 6x6 one")
	}
}

func TestRouteWithOptionsFaultAware(t *testing.T) {
	topo := NewMesh(12)
	sched, err := GenerateFaults(topo, FaultConfig{Seed: 3, Horizon: 200, LinkFailures: 8, MeanDownSteps: 20})
	if err != nil {
		t.Fatal(err)
	}
	st, err := RouteWithOptions(RouterZigZag, topo, 4, RandomPermutation(topo, 4), RouteOptions{
		Faults: sched, FaultAware: true, Watchdog: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done {
		t.Fatalf("fault-aware zigzag must survive transient faults: %+v", st)
	}
}

func TestRouteWithOptionsNoFaultAwareVariant(t *testing.T) {
	topo := NewMesh(8)
	_, err := RouteWithOptions(RouterDimOrder, topo, 2, RandomPermutation(topo, 1), RouteOptions{FaultAware: true})
	if err == nil || !strings.Contains(err.Error(), "fault-aware") {
		t.Fatalf("dimension order has no fault-aware variant; got %v", err)
	}
}

// A pair outside the topology is refused, by the engine and under every
// router, with an error naming it — not an index panic, a misleading
// mid-run failure or a run that never ends. The empty permutation still routes trivially, and a
// negative MaxSteps still means the default budget.
func TestRouteRejectsPairsOutsideTopology(t *testing.T) {
	topo := NewMesh(4)
	route := func(router string, perm *Permutation, maxSteps int) (st RouteStats, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return Route(router, topo, 2, perm, maxSteps)
	}
	// The engine column: a network built directly refuses the pair when it
	// places the packet, naming the packet (IDs start at 1) and the node.
	place := func(perm *Permutation) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		net, err := NewNetwork(NetworkConfig{Topo: topo, K: 2})
		if err != nil {
			return err
		}
		return perm.Place(net)
	}
	bad := []struct {
		pair Pair
		node NodeID
	}{{Pair{Src: 99, Dst: 0}, 99}, {Pair{Src: 0, Dst: 99}, 99}, {Pair{Src: 0, Dst: -1}, -1}}
	for _, b := range bad {
		err := place(&Permutation{Pairs: []Pair{{Src: 1, Dst: 2}, b.pair}})
		if want := fmt.Sprintf("packet 2 (%d->%d): node %d is not", b.pair.Src, b.pair.Dst, b.node); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("engine, pair %d->%d: error %v, want one containing %q", b.pair.Src, b.pair.Dst, err, want)
		}
	}
	for _, router := range RouterNames() {
		for _, b := range bad {
			_, err := route(router, &Permutation{Pairs: []Pair{{Src: 1, Dst: 2}, b.pair}}, 0)
			if want := fmt.Sprintf("pair 1 (%d->%d) outside", b.pair.Src, b.pair.Dst); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, pair %d->%d: error %v, want one containing %q", router, b.pair.Src, b.pair.Dst, err, want)
			}
		}
		if st, err := route(router, &Permutation{}, 0); err != nil || st != (RouteStats{Done: true}) {
			t.Errorf("%s, empty permutation: %+v, %v; want done with zero stats", router, st, err)
		}
		def, err := route(router, Transpose(topo), 0)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		if neg, err := route(router, Transpose(topo), -5); err != nil || neg != def {
			t.Errorf("%s, MaxSteps -5: %+v, %v; want the default budget's %+v", router, neg, err, def)
		}
	}
}
