package routers

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func strayConfig(n, k, delta int) sim.Config {
	return sim.Config{
		Topo:            grid.NewSquareMesh(n),
		K:               k,
		Queues:          sim.CentralQueue,
		RequireMinimal:  false,
		MaxStray:        delta,
		CheckInvariants: true,
	}
}

func TestStrayRoutesRandomPermutations(t *testing.T) {
	for _, n := range []int{8, 16} {
		for _, delta := range []int{1, 2} {
			perm := workload.Random(grid.NewSquareMesh(n), int64(n+delta))
			net := sim.MustNew(strayConfig(n, 3, delta))
			if err := perm.Place(net); err != nil {
				t.Fatal(err)
			}
			alg := dex.NewAdapter(policies.StrayDimOrder{Delta: delta})
			if _, err := net.Run(nil, alg, 200*n*n, nil); err != nil {
				t.Fatalf("n=%d delta=%d: %v", n, delta, err)
			}
			if !net.Done() {
				t.Fatal("packets undelivered at the step budget")
			}
		}
	}
}

// The engine's MaxStray validator guarantees the router honors its budget;
// this test provokes straying and confirms both that it happens and that
// the validator stays silent.
func TestStrayActuallyStrays(t *testing.T) {
	n, delta := 10, 2
	net := sim.MustNew(strayConfig(n, 1, delta))
	topo := net.Topo
	// A column of northbound packets blocks the turner's destination
	// column at its turning point.
	for y := 0; y < 5; y++ {
		net.MustPlace(net.NewPacket(topo.ID(grid.XY(4, y)), topo.ID(grid.XY(4, 9-y))))
	}
	turner := net.NewPacket(topo.ID(grid.XY(0, 2)), topo.ID(grid.XY(4, 8)))
	net.MustPlace(turner)
	alg := dex.NewAdapter(policies.StrayDimOrder{Delta: delta})
	maxX := 0
	for i := 0; i < 400 && !net.Done(); i++ {
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
		if c := topo.CoordOf(net.P.At[turner]); c.X > maxX {
			maxX = c.X
		}
	}
	if !net.Done() {
		t.Fatal("did not finish")
	}
	if int(net.P.Hops[turner]) <= topo.Dist(net.P.Src[turner], net.P.Dst[turner]) && maxX <= 4 {
		t.Log("turner was never forced to stray (acceptable but unexpected)")
	}
	if maxX > 4+delta {
		t.Fatalf("strayed to x=%d, budget allows %d", maxX, 4+delta)
	}
}

// With zero budget the router is plain minimal dimension order.
func TestStrayZeroBudgetNeverStrays(t *testing.T) {
	n := 12
	perm := workload.Random(grid.NewSquareMesh(n), 3)
	net := sim.MustNew(sim.Config{
		Topo: grid.NewSquareMesh(n), K: 3, Queues: sim.CentralQueue,
		RequireMinimal: true, CheckInvariants: true, // minimality enforced
	})
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, dex.NewAdapter(policies.StrayDimOrder{Delta: 0}), 200*n*n, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	for _, p := range net.Packets() {
		if p.Hops != net.Topo.Dist(p.Src, p.Dst) {
			t.Fatalf("packet %d nonminimal with zero budget", p.ID)
		}
	}
}

// Engine-level MaxStray rejection: a router exceeding the budget is caught.
func TestMaxStrayValidatorRejects(t *testing.T) {
	n := 8
	net := sim.MustNew(strayConfig(n, 2, 1))
	topo := net.Topo
	// Westbound packet: every east move exceeds the rectangle, so the
	// second one exceeds MaxStray=1.
	net.MustPlace(net.NewPacket(topo.ID(grid.XY(2, 2)), topo.ID(grid.XY(0, 2))))
	err := error(nil)
	for i := 0; i < 10 && err == nil; i++ {
		err = net.StepOnce(alwaysEast{})
	}
	if err == nil {
		t.Fatal("budget violation must be detected")
	}
}

type alwaysEast struct{ greedyStub }

func (alwaysEast) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	if n.Len() > 0 {
		if _, ok := net.Topo.Neighbor(n.ID, grid.East); ok {
			sched[grid.East] = 0
		}
	}
	return sched
}

type greedyStub struct{}

func (greedyStub) Name() string                           { return "stub" }
func (greedyStub) InitNode(net *sim.Network, n *sim.Node) {}
func (greedyStub) Update(net *sim.Network, n *sim.Node)   {}
func (greedyStub) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	for i := range acc {
		acc[i] = true
	}
}

// TestDexSteadyStateStepAllocs is TestSteadyStateStepAllocs (package sim,
// which cannot import this one) for the destination-exchangeable routers:
// after warm-up a step through the adapter and each policy allocates
// nothing. stray is the case that used to fail — its Schedule built a
// map[int]bool per call, twice per node per step — and so was hot-potato,
// whose Schedule made two slices per call.
func TestDexSteadyStateStepAllocs(t *testing.T) {
	const n = 16
	cases := []struct {
		cfg sim.Config
		pol dex.Policy
	}{
		{centralConfig(n, 2), policies.DimOrderFIFO{}},
		{centralConfig(n, 2), policies.ZigZag{}},
		{Thm15Config(grid.NewSquareMesh(n), 2), policies.Thm15{}},
		{strayConfig(n, 3, 2), policies.StrayDimOrder{Delta: 2}},
		{HotPotatoConfig(grid.NewSquareMesh(n)), policies.HotPotato{}},
	}
	for _, c := range cases {
		net := sim.MustNew(c.cfg)
		if err := workload.Reversal(c.cfg.Topo).Place(net); err != nil {
			t.Fatal(err)
		}
		alg := dex.NewAdapter(c.pol)
		step := func() {
			if err := net.StepOnce(alg); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ { // warm scratch buffers
			step()
		}
		if avg := testing.AllocsPerRun(20, step); avg != 0 {
			t.Errorf("%s: steady-state StepOnce allocates %.1f times per step, want 0", c.pol.Name(), avg)
		}
		if net.Done() {
			t.Errorf("%s: network drained during the measurement; steps were not steady state", c.pol.Name())
		}
	}
}
