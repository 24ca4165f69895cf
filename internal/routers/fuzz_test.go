package routers

import (
	"testing"

	"meshroute/internal/bounds"
	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// FuzzRouteRandomPermutation routes a seeded random permutation with a
// fuzz-chosen router and mesh size and asserts the engine invariants:
// delivery completeness within the step budget and Theorem 15's makespan
// for the guaranteed router, minimality, queue bounds, and the distance
// and cut bounds on the packets delivered. Run with `go test
// -fuzz=FuzzRoute` for a proper fuzzing session; the seed corpus runs
// under plain `go test`.
func FuzzRouteRandomPermutation(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(8), uint8(1))
	f.Add(int64(2), uint8(1), uint8(12), uint8(2))
	f.Add(int64(3), uint8(2), uint8(6), uint8(3))
	f.Add(int64(4), uint8(3), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, routerRaw, nRaw, kRaw uint8) {
		n := 4 + int(nRaw)%13 // 4..16
		k := 1 + int(kRaw)%4  // 1..4
		topo := grid.NewSquareMesh(n)
		perm := workload.Random(topo, seed)

		var alg sim.Algorithm
		var cfg sim.Config
		guaranteed := false
		switch routerRaw % 4 {
		case 0:
			alg = dex.NewAdapter(policies.Thm15{})
			cfg = Thm15Config(topo, k)
			guaranteed = true
		case 1:
			if k < 2 {
				k = 2 // central-queue dimension order needs the reserved slot
			}
			alg = dex.NewAdapter(policies.DimOrderFIFO{})
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		case 2:
			if k < 3 {
				k = 3
			}
			alg = dex.NewAdapter(policies.ZigZag{})
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		default:
			alg = DimOrderFF{}
			if k < 2 {
				k = 2
			}
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		}
		net := sim.MustNew(cfg)
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, alg, 500*n*n, nil); err != nil {
			t.Fatalf("engine invariant violated: %v", err)
		}
		in := bounds.Instance{Topo: topo, K: k, Pairs: net.DeliveredPairs()}
		rows := []*bounds.Row{bounds.Distance, bounds.Cut}
		if guaranteed {
			if !net.Done() {
				t.Fatalf("thm15 must deliver: %d/%d", net.DeliveredCount(), net.TotalPackets())
			}
			rows = append(rows, bounds.Theorem15)
		}
		if err := bounds.Check(in, net.Metrics.Makespan, rows...); err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Packets() {
			if p.Delivered() && p.Hops != net.Topo.Dist(p.Src, p.Dst) {
				t.Fatalf("nonminimal delivery: packet %d", p.ID)
			}
		}
		if net.Metrics.MaxQueueLen > k {
			t.Fatalf("queue bound violated: %d > %d", net.Metrics.MaxQueueLen, k)
		}
	})
}
