package routers

import (
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func TestRandZigZagRoutesPermutations(t *testing.T) {
	for _, n := range []int{8, 16} {
		for seed := uint64(0); seed < 3; seed++ {
			perm := workload.Random(grid.NewSquareMesh(n), int64(seed))
			net := sim.MustNew(centralConfig(n, 4))
			if err := perm.Place(net); err != nil {
				t.Fatal(err)
			}
			if _, err := net.Run(nil, RandZigZag{Seed: seed}, 500*n*n, nil); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if !net.Done() {
				t.Fatal("packets undelivered at the step budget")
			}
			for _, p := range net.Packets() {
				if p.Hops != net.Topo.Dist(p.Src, p.Dst) {
					t.Fatalf("nonminimal: packet %d", p.ID)
				}
			}
		}
	}
}

func TestRandZigZagReproducible(t *testing.T) {
	run := func(seed uint64) int {
		n := 12
		perm := workload.Random(grid.NewSquareMesh(n), 7)
		net := sim.MustNew(centralConfig(n, 4))
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, RandZigZag{Seed: seed}, 500*n*n, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
		return net.Metrics.Makespan
	}
	if run(5) != run(5) {
		t.Fatal("same seed must reproduce")
	}
	// Different seeds usually differ (not guaranteed; check a few).
	base := run(1)
	differs := false
	for s := uint64(2); s < 6; s++ {
		if run(s) != base {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("randomization appears inert across seeds")
	}
}

func TestSplitmix64Spreads(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[splitmix64(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("splitmix64 collided: %d unique of 1000", len(seen))
	}
	// Low bits must be usable for small moduli.
	counts := [2]int{}
	for i := uint64(0); i < 1000; i++ {
		counts[splitmix64(i)%2]++
	}
	if counts[0] < 400 || counts[1] < 400 {
		t.Fatalf("biased low bit: %v", counts)
	}
}
