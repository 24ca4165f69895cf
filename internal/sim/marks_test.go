package sim_test

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// TestNoStaleNodeMarks runs real routers on a mesh and a torus, one of them
// under a fault schedule, and checks after every step that no node still
// carries the part (c) offered or part (d) sent bit, and that the occupied
// bit is exactly membership in Occupied().
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
		{"dimorder/mesh", grid.NewSquareMesh(n), central, func() sim.Algorithm { return dex.NewAdapter(routers.DimOrderFIFO{}) }, false},
		{"dimorder/torus", grid.NewSquareTorus(n), central, func() sim.Algorithm { return dex.NewAdapter(routers.DimOrderFIFO{}) }, false},
		{"zigzag/mesh", grid.NewSquareMesh(n), central, func() sim.Algorithm { return dex.NewAdapter(routers.ZigZag{}) }, false},
		{"zigzag/torus-faults", grid.NewSquareTorus(n), central, func() sim.Algorithm { return dex.NewAdapter(routers.ZigZag{FaultAware: true}) }, true},
		{"thm15/mesh", grid.NewSquareMesh(n), thm15, func() sim.Algorithm { return dex.NewAdapter(routers.Thm15{}) }, false},
		{"thm15/torus", grid.NewSquareTorus(n), thm15, func() sim.Algorithm { return dex.NewAdapter(routers.Thm15{}) }, false},
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
			inOcc := make([]bool, tc.topo.N())
			sawFault := false
			for !net.Done() {
				if net.Step() > 100*n {
					t.Fatalf("not done after %d steps", net.Step())
				}
				if err := net.StepOnce(alg); err != nil {
					t.Fatal(err)
				}
				clear(inOcc)
				for _, id := range net.Occupied() {
					inOcc[id] = true
				}
				for id := range inOcc {
					sawFault = sawFault || net.Stalled(grid.NodeID(id)) || net.DownOutlinks(grid.NodeID(id)) != 0
					occupied, offered, sent := sim.NodeMarks(net, grid.NodeID(id))
					if offered || sent || occupied != inOcc[id] {
						t.Fatalf("step %d node %d: occupied=%v (listed %v) offered=%v sent=%v",
							net.Step(), id, occupied, inOcc[id], offered, sent)
					}
				}
			}
			if tc.faults != sawFault {
				t.Fatalf("faults configured %v, but a fault was active: %v", tc.faults, sawFault)
			}
		})
	}
}
