package routers

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// The routers must work on rectangular meshes too.
func TestRectangularMesh(t *testing.T) {
	topo := grid.NewMesh(12, 5)
	perm := workload.Random(topo, 5)
	cfg := sim.Config{Topo: topo, K: 4, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	for _, alg := range []sim.Algorithm{
		dex.NewAdapter(policies.DimOrderFIFO{}),
		dex.NewAdapter(policies.ZigZag{}),
		DimOrderFF{},
	} {
		net := sim.MustNew(cfg)
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, alg, 10000, nil); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
	}
	net := sim.MustNew(Thm15Config(topo, 2))
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 10000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
}

// Thm15 on the torus: the wrap-around shortest paths still terminate.
func TestThm15Torus(t *testing.T) {
	topo := grid.NewSquareTorus(9)
	perm := workload.Random(topo, 13)
	net := sim.MustNew(Thm15Config(topo, 1))
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 5000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	for _, p := range net.Packets() {
		if p.Hops != topo.Dist(p.Src, p.Dst) {
			t.Fatalf("packet %d nonminimal on torus: %d vs %d", p.ID, p.Hops, topo.Dist(p.Src, p.Dst))
		}
	}
}

// HotPotato on the torus (every node has degree 4 — the cleanest
// deflection setting).
func TestHotPotatoTorus(t *testing.T) {
	topo := grid.NewSquareTorus(8)
	perm := workload.Random(topo, 3)
	net := sim.MustNew(sim.Config{Topo: topo, K: 4, Queues: sim.CentralQueue, CheckInvariants: true})
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, dex.NewAdapter(policies.HotPotato{}), 20000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
}

// A packet with a single profitable direction never zigzags away from it.
func TestZigZagSingleProfitableStable(t *testing.T) {
	net := sim.MustNew(sim.Config{Topo: grid.NewSquareMesh(8), K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
	topo := net.Topo
	p := net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(6, 3))) // due east
	net.MustPlace(p)
	steps, err := net.Run(nil, dex.NewAdapter(policies.ZigZag{}), 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 6 || net.P.Hops[p] != 6 {
		t.Fatalf("due-east packet took %d steps, %d hops", steps, net.P.Hops[p])
	}
}

// Thm15 straight-priority: a turning packet cannot starve a column stream,
// and the stream cannot permanently starve the turner either once it dries.
func TestThm15TurnerEventuallyTurns(t *testing.T) {
	n := 8
	net := sim.MustNew(Thm15Config(grid.NewSquareMesh(n), 1))
	topo := net.Topo
	// Stream of 4 straight packets climbing column 4.
	for y := 0; y < 4; y++ {
		net.MustPlace(net.NewPacket(topo.ID(grid.XY(4, y)), topo.ID(grid.XY(4, 7-y))))
	}
	// One turner entering column 4 from the west, destination up top.
	turner := net.NewPacket(topo.ID(grid.XY(0, 4)), topo.ID(grid.XY(4, 6)))
	net.MustPlace(turner)
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 500, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	st := &net.P
	if !st.Delivered(turner) {
		t.Fatal("turner starved")
	}
	if int(st.Hops[turner]) != topo.Dist(st.Src[turner], st.Dst[turner]) {
		t.Fatal("turner nonminimal")
	}
}

// The swap acceptance rule: two adjacent full nodes exchanging head-on
// packets must make progress (no head-on deadlock).
func TestSwapRuleBreaksHeadOnDeadlock(t *testing.T) {
	n := 8
	cfg := sim.Config{Topo: grid.NewSquareMesh(n), K: 1, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	net := sim.MustNew(cfg)
	topo := net.Topo
	// k=1: node (3,0) holds an east-mover, (4,0) a west-mover.
	e := net.NewPacket(topo.ID(grid.XY(3, 0)), topo.ID(grid.XY(6, 0)))
	w := net.NewPacket(topo.ID(grid.XY(4, 0)), topo.ID(grid.XY(1, 0)))
	net.MustPlace(e)
	net.MustPlace(w)
	if _, err := net.Run(nil, dex.NewAdapter(policies.ZigZag{}), 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if !net.P.Delivered(e) || !net.P.Delivered(w) {
		t.Fatal("head-on pair did not resolve")
	}
	if net.P.Hops[e] != 3 || net.P.Hops[w] != 3 {
		t.Fatalf("nonminimal resolution: %d, %d", net.P.Hops[e], net.P.Hops[w])
	}
}
