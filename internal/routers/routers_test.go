package routers

import (
	"slices"
	"testing"

	"meshroute/internal/bounds"
	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func centralConfig(n, k int) sim.Config { return minimalCentral(grid.NewSquareMesh(n), k) }

// runPerm routes a permutation to completion and returns the makespan.
func runPerm(t *testing.T, cfg sim.Config, alg sim.Algorithm, p *workload.Permutation, maxSteps int) *sim.Network {
	t.Helper()
	net := sim.MustNew(cfg)
	if err := p.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, alg, maxSteps, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	return net
}

func checkMinimalPaths(t *testing.T, net *sim.Network) {
	t.Helper()
	for _, p := range net.Packets() {
		if want := net.Topo.Dist(p.Src, p.Dst); p.Hops != want {
			t.Fatalf("packet %d took %d hops, minimal is %d", p.ID, p.Hops, want)
		}
	}
}

func TestDimOrderFIFORoutesRandomPermutations(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		for _, k := range []int{2, 4} {
			for seed := int64(0); seed < 3; seed++ {
				perm := workload.Random(grid.NewSquareMesh(n), seed)
				net := runPerm(t, centralConfig(n, k), dex.NewAdapter(policies.DimOrderFIFO{}), perm, 50*n*n)
				checkMinimalPaths(t, net)
				if net.Metrics.MaxQueueLen > k {
					t.Fatalf("n=%d k=%d: queue %d > k", n, k, net.Metrics.MaxQueueLen)
				}
			}
		}
	}
}

func TestDimOrderFIFORoutesStructured(t *testing.T) {
	n := 8
	topo := grid.NewSquareMesh(n)
	for name, perm := range map[string]*workload.Permutation{
		"transpose": workload.Transpose(topo),
		"rotation":  workload.Rotation(topo, 3, 2),
	} {
		net := runPerm(t, centralConfig(n, 4), dex.NewAdapter(policies.DimOrderFIFO{}), perm, 100*n*n)
		checkMinimalPaths(t, net)
		if net.DeliveredCount() != n*n {
			t.Fatalf("%s: %d delivered", name, net.DeliveredCount())
		}
	}
}

func TestDimOrderFIFOFollowsXYOrder(t *testing.T) {
	// A single packet must move all the way east before turning north.
	n := 8
	cfg := centralConfig(n, 2)
	net := sim.MustNew(cfg)
	topo := net.Topo
	p := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 5)))
	net.MustPlace(p)
	alg := dex.NewAdapter(policies.DimOrderFIFO{})
	for i := 0; i < 5; i++ {
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
		want := grid.XY(i+1, 0)
		if net.P.Delivered(p) {
			t.Fatal("delivered too early")
		}
		if got := findPacketCoord(net, p); got != want {
			t.Fatalf("step %d: at %v, want %v (row first)", i+1, got, want)
		}
	}
	if _, err := net.Run(nil, alg, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if net.P.Hops[p] != 10 {
		t.Fatalf("hops = %d", net.P.Hops[p])
	}
}

func findPacketCoord(net *sim.Network, p sim.PacketID) grid.Coord {
	for _, id := range net.Occupied() {
		for _, q := range net.PacketsOf(net.Node(id)) {
			if q == p {
				return net.Topo.CoordOf(id)
			}
		}
	}
	return grid.XY(-1, -1)
}

func TestZigZagRoutesRandomPermutations(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		for seed := int64(0); seed < 3; seed++ {
			perm := workload.Random(grid.NewSquareMesh(n), seed)
			net := runPerm(t, centralConfig(n, 4), dex.NewAdapter(policies.ZigZag{}), perm, 100*n*n)
			checkMinimalPaths(t, net)
		}
	}
}

func TestZigZagAlternatesWhenBlocked(t *testing.T) {
	// Two packets at (0,0)'s east neighbor collide; the zigzag packet at
	// (0,0) keeps moving: when East is congested it goes North instead.
	n := 6
	cfg := centralConfig(n, 1) // k=1 makes blocking easy
	net := sim.MustNew(cfg)
	topo := net.Topo
	// Blocker parked at (1,0): destination (1,5), so it leaves northward,
	// but first step it occupies the queue.
	blocker := net.NewPacket(topo.ID(grid.XY(1, 0)), topo.ID(grid.XY(1, 5)))
	net.MustPlace(blocker)
	// Mover at (0,0) wants (2,2): both East and North profitable.
	mover := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(2, 2)))
	net.MustPlace(mover)
	alg := dex.NewAdapter(policies.ZigZag{})
	if _, err := net.Run(nil, alg, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	checkMinimalPaths(t, net)
	if !net.P.Delivered(mover) || !net.P.Delivered(blocker) {
		t.Fatal("both packets must deliver")
	}
}

func TestZigZagMixedWithBlockageStillMinimal(t *testing.T) {
	n := 8
	topo := grid.NewSquareMesh(n)
	perm := workload.Reversal(topo)
	net := runPerm(t, centralConfig(n, 4), dex.NewAdapter(policies.ZigZag{}), perm, 200*n*n)
	checkMinimalPaths(t, net)
}

func TestThm15RoutesRandomPermutations(t *testing.T) {
	for _, n := range []int{4, 8, 16} {
		for _, k := range []int{1, 2, 4} {
			perm := workload.Random(grid.NewSquareMesh(n), int64(n*10+k))
			net := runPerm(t, Thm15Config(grid.NewSquareMesh(n), k), dex.NewAdapter(policies.Thm15{}), perm, 200*n*n)
			checkMinimalPaths(t, net)
			if err := bounds.Check(bounds.Instance{Topo: net.Topo, K: k}, net.Metrics.Makespan, bounds.Theorem15); err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
		}
	}
}

func TestThm15RoutesHardStructured(t *testing.T) {
	n := 8
	topo := grid.NewSquareMesh(n)
	for name, perm := range map[string]*workload.Permutation{
		"reversal":    workload.Reversal(topo),
		"transpose":   workload.Transpose(topo),
		"bitreversal": workload.BitReversal(topo),
	} {
		net := runPerm(t, Thm15Config(grid.NewSquareMesh(n), 1), dex.NewAdapter(policies.Thm15{}), perm, 500*n*n)
		checkMinimalPaths(t, net)
		if net.DeliveredCount() != n*n {
			t.Fatalf("%s: %d delivered", name, net.DeliveredCount())
		}
	}
}

// The paper's key structural claim inside Theorem 15: North and South
// queues always have room, so the unconditional accept never overflows.
// CheckInvariants makes the engine fail the run if that claim breaks.
func TestThm15VerticalQueuesNeverOverflow(t *testing.T) {
	n := 12
	perm := workload.Reversal(grid.NewSquareMesh(n))
	net := runPerm(t, Thm15Config(grid.NewSquareMesh(n), 1), dex.NewAdapter(policies.Thm15{}), perm, 500*n*n)
	if net.Metrics.MaxQueueLen > 1 {
		t.Fatalf("k=1 run saw queue length %d", net.Metrics.MaxQueueLen)
	}
}

func TestThm15StraightPriority(t *testing.T) {
	// A stream of straight vertical packets must not be blocked by a
	// turning packet.
	n := 6
	net := sim.MustNew(Thm15Config(grid.NewSquareMesh(n), 1))
	topo := net.Topo
	// Straight packet: travelling north through (2,2).
	straightP := net.NewPacket(topo.ID(grid.XY(2, 0)), topo.ID(grid.XY(2, 5)))
	net.MustPlace(straightP)
	// Turner: arrives at (2,2) from the west, wants to turn north.
	turner := net.NewPacket(topo.ID(grid.XY(0, 2)), topo.ID(grid.XY(2, 5)))
	_ = turner
	// Same destination would break the permutation; give the turner a
	// different column-top destination.
	net.P.Dst[turner] = topo.ID(grid.XY(2, 4))
	net.MustPlace(turner)
	alg := dex.NewAdapter(policies.Thm15{})
	if _, err := net.Run(nil, alg, 200, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	checkMinimalPaths(t, net)
}

func TestDimOrderFFRoutesPermutations(t *testing.T) {
	for _, n := range []int{4, 8} {
		for _, k := range []int{2, 4} {
			perm := workload.Random(grid.NewSquareMesh(n), int64(n+k))
			net := runPerm(t, centralConfig(n, k), DimOrderFF{}, perm, 100*n*n)
			checkMinimalPaths(t, net)
		}
	}
}

func TestDimOrderFFPrefersFarthest(t *testing.T) {
	n := 8
	net := sim.MustNew(centralConfig(n, 2))
	topo := net.Topo
	near := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(2, 0)))
	far := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(7, 1)))
	net.MustPlace(near)
	net.MustPlace(far)
	if err := net.StepOnce(DimOrderFF{}); err != nil {
		t.Fatal(err)
	}
	// Only one can leave east; farthest-first must pick far.
	if findPacketCoord(net, far) != grid.XY(1, 0) {
		t.Fatal("farthest packet must advance first")
	}
	if findPacketCoord(net, near) != grid.XY(0, 0) {
		t.Fatal("near packet must wait")
	}
	if _, err := net.Run(nil, DimOrderFF{}, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
}

func TestHotPotatoDeliversPermutations(t *testing.T) {
	for _, n := range []int{4, 8} {
		perm := workload.Random(grid.NewSquareMesh(n), int64(n))
		net := sim.MustNew(HotPotatoConfig(grid.NewSquareMesh(n)))
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, dex.NewAdapter(policies.HotPotato{}), 1000*n, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
		if net.DeliveredCount() != n*n {
			t.Fatalf("delivered %d/%d", net.DeliveredCount(), n*n)
		}
	}
}

func TestHotPotatoTakesNonminimalPathsUnderContention(t *testing.T) {
	n := 8
	perm := workload.Reversal(grid.NewSquareMesh(n))
	net := sim.MustNew(HotPotatoConfig(grid.NewSquareMesh(n)))
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, dex.NewAdapter(policies.HotPotato{}), 5000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	extra := 0
	for _, p := range net.Packets() {
		extra += p.Hops - net.Topo.Dist(p.Src, p.Dst)
	}
	if extra == 0 {
		t.Fatal("reversal under deflection should deflect at least one packet")
	}
}

// TestRoutersAreDeterministic runs every router twice on one instance, each
// time on a fresh network with a fresh algorithm value, and requires
// identical per-packet outcomes.
func TestRoutersAreDeterministic(t *testing.T) {
	run := func(mk func() sim.Algorithm, cfg sim.Config) []sim.Packet {
		net := sim.MustNew(cfg)
		perm := workload.Random(cfg.Topo, 99)
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, mk(), 100000, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
		return slices.Clone(net.Packets())
	}
	algs := []struct {
		name string
		mk   func() sim.Algorithm
		cfg  sim.Config
	}{
		{"dimorder", func() sim.Algorithm { return dex.NewAdapter(policies.DimOrderFIFO{}) }, centralConfig(8, 4)},
		{"zigzag", func() sim.Algorithm { return dex.NewAdapter(policies.ZigZag{}) }, centralConfig(8, 4)},
		{"thm15", func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }, Thm15Config(grid.NewSquareMesh(8), 2)},
		{"stray", func() sim.Algorithm { return dex.NewAdapter(policies.StrayDimOrder{Delta: 2}) }, strayConfig(8, 3, 2)},
		{"ff", func() sim.Algorithm { return DimOrderFF{} }, centralConfig(8, 4)},
		{"randzz", func() sim.Algorithm { return RandZigZag{Seed: 7} }, centralConfig(8, 4)},
		{"hotpotato", func() sim.Algorithm { return dex.NewAdapter(policies.HotPotato{}) }, HotPotatoConfig(grid.NewSquareMesh(8))},
		{"scheduled", func() sim.Algorithm { return NewScheduled(0) }, centralConfig(8, 2)},
	}
	for _, a := range algs {
		if !slices.Equal(run(a.mk, a.cfg), run(a.mk, a.cfg)) {
			t.Errorf("%s: per-packet outcomes differ between two runs of one instance", a.name)
		}
	}
}
