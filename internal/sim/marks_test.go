package sim_test

import (
	"strings"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// TestNoStaleNodeMarks runs real routers on a mesh and a torus, one of them
// under a fault schedule, and checks after every step that no node still
// carries the part (c) offered or part (d) sent bit, that no resident packet
// is still marked departing, and that the occupied bit is exactly
// membership in Occupied().
func TestNoStaleNodeMarks(t *testing.T) {
	const n = 8
	central := func(topo grid.Topology) sim.Config {
		return sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	}
	thm15 := func(topo grid.Topology) sim.Config { return routers.Thm15Config(topo, 2) }
	cases := []struct {
		name   string
		topo   grid.Topology
		cfg    func(grid.Topology) sim.Config
		alg    func() sim.Algorithm
		faults bool
	}{
		{"dimorder/mesh", grid.NewSquareMesh(n), central, func() sim.Algorithm { return dex.NewAdapter(policies.DimOrderFIFO{}) }, false},
		{"dimorder/torus", grid.NewSquareTorus(n), central, func() sim.Algorithm { return dex.NewAdapter(policies.DimOrderFIFO{}) }, false},
		{"zigzag/mesh", grid.NewSquareMesh(n), central, func() sim.Algorithm { return dex.NewAdapter(policies.ZigZag{}) }, false},
		{"zigzag/torus-faults", grid.NewSquareTorus(n), central, func() sim.Algorithm { return dex.NewAdapter(policies.ZigZag{FaultAware: true}) }, true},
		{"thm15/mesh", grid.NewSquareMesh(n), thm15, func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }, false},
		{"thm15/torus", grid.NewSquareTorus(n), thm15, func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(tc.topo)
			if tc.faults {
				sched, err := fault.Generate(tc.topo, fault.Config{
					Seed: 7, Horizon: 40, LinkFailures: 12, MeanDownSteps: 3, NodeStalls: 3, MeanStallSteps: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = sched
			}
			net := sim.MustNew(cfg)
			if err := workload.Random(tc.topo, 3).Place(net); err != nil {
				t.Fatal(err)
			}
			alg := tc.alg()
			sawFault := false
			for !net.Done() {
				if net.Step() > 100*n {
					t.Fatalf("not done after %d steps", net.Step())
				}
				if err := net.StepOnce(alg); err != nil {
					t.Fatal(err)
				}
				requireNoStaleMarks(t, net)
				for id := grid.NodeID(0); int(id) < tc.topo.N(); id++ {
					sawFault = sawFault || net.Stalled(id) || net.DownOutlinks(id) != 0
				}
			}
			if tc.faults != sawFault {
				t.Fatalf("faults configured %v, but a fault was active: %v", tc.faults, sawFault)
			}
		})
	}

	// A step that fails part (c)'s check of an arrival against its sender
	// leaves no mark behind either: by then earlier arrivals are marked
	// departing and their senders sent.
	t.Run("not-found-at-sender", func(t *testing.T) {
		topo := grid.NewSquareMesh(n)
		net := sim.MustNew(central(topo))
		if err := workload.Random(topo, 3).Place(net); err != nil {
			t.Fatal(err)
		}
		alg := &misplacingAccept{Algorithm: dex.NewAdapter(policies.DimOrderFIFO{}), step: 2, call: 3}
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
		err := net.StepOnce(alg)
		if err == nil || !strings.Contains(err.Error(), "not found at sender") {
			t.Fatalf("want the not-found-at-sender error, got %v", err)
		}
		if alg.calls < alg.call {
			t.Fatalf("step 2 made %d accepting Accept calls, want at least %d", alg.calls, alg.call)
		}
		requireNoStaleMarks(t, net)
	})
}

// requireNoStaleMarks fails unless every node's occupied bit is exactly its
// membership in Occupied() and no node carries an offered, sent or
// departing mark.
func requireNoStaleMarks(t *testing.T, net *sim.Network) {
	t.Helper()
	inOcc := make([]bool, net.Topo.N())
	for _, id := range net.Occupied() {
		inOcc[id] = true
	}
	for id := range inOcc {
		occupied, offered, sent, departing := sim.NodeMarks(net, grid.NodeID(id))
		if offered || sent || departing || occupied != inOcc[id] {
			t.Fatalf("step %d node %d: occupied=%v (listed %v) offered=%v sent=%v departing=%v",
				net.Step(), id, occupied, inOcc[id], offered, sent, departing)
		}
	}
}

// misplacingAccept is its router with one fault injected through the
// store: at the given step, the call-th Accept call that admits an offer
// rewrites the admitted packet's At to the target, as if it had already
// left its sender.
type misplacingAccept struct {
	sim.Algorithm
	step, call, calls int
}

func (m *misplacingAccept) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	m.Algorithm.Accept(net, n, offers, acc)
	if net.Step() != m.step {
		return
	}
	for i, ok := range acc {
		if ok {
			if m.calls++; m.calls == m.call {
				net.P.At[offers[i].P] = n.ID
			}
			return
		}
	}
}
