package workload

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
)

// TestHHPlaceBacklogsOverflow: h-h traffic placed into queues smaller than
// h does not fail. What does not fit waits in its source's backlog and
// enters once there is room, so every packet is placed and delivered.
func TestHHPlaceBacklogsOverflow(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	hh := RandomHH(topo, 3, 1)
	for _, k := range []int{2, 3} {
		net := sim.MustNew(sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
		if err := hh.Place(net); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if net.TotalPackets() != 48 {
			t.Fatalf("k=%d: placed %d", k, net.TotalPackets())
		}
		waited := net.Metrics.Refused > 0
		if waited != (k < 3) {
			t.Fatalf("k=%d: %d packets refused at placement, want some exactly when k < h", k, net.Metrics.Refused)
		}
		if _, err := net.Run(nil, dex.NewAdapter(routers.ZigZag{}), 200, nil); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !net.Done() {
			t.Fatalf("k=%d: %d/48 delivered", k, net.DeliveredCount())
		}
	}
}

func TestPlaceErrorPropagates(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	net := sim.MustNew(sim.Config{Topo: topo, K: 1, Queues: sim.CentralQueue})
	p := &Permutation{Pairs: []Pair{{Src: 0, Dst: 5}, {Src: 0, Dst: 16}}}
	if err := p.Place(net); err == nil {
		t.Fatal("placing a pair outside the topology must fail")
	}
}

func TestRandomDestinationsShape(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	p := RandomDestinations(topo, 3)
	if p.Len() != 64 {
		t.Fatalf("len %d", p.Len())
	}
	srcs := map[grid.NodeID]bool{}
	for _, pr := range p.Pairs {
		if srcs[pr.Src] {
			t.Fatal("duplicate source")
		}
		srcs[pr.Src] = true
	}
	// Destinations are independent, so collisions are expected at n²=64:
	// the instance is NOT a permutation with overwhelming probability.
	if err := p.Validate(); err == nil {
		t.Log("random destinations happened to be a permutation (astronomically unlikely)")
	}
}

func TestReversalInvolution(t *testing.T) {
	topo := grid.NewSquareMesh(5)
	p := Reversal(topo)
	m := map[grid.NodeID]grid.NodeID{}
	for _, pr := range p.Pairs {
		m[pr.Src] = pr.Dst
	}
	for s, d := range m {
		if m[d] != s {
			t.Fatal("reversal must be an involution")
		}
	}
	// Odd n has one fixed point (the center).
	fixed := 0
	for s, d := range m {
		if s == d {
			fixed++
		}
	}
	if fixed != 1 {
		t.Fatalf("5x5 reversal has %d fixed points, want 1", fixed)
	}
}
