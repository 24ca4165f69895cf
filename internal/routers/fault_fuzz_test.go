package routers

import (
	"errors"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// FuzzRouteUnderFaults routes seeded random permutations with fuzz-chosen
// routers under fuzz-chosen randomized fault schedules, with the runtime
// invariant checker enabled. The property under test: for routers whose
// accept policy is fault-safe the invariant checker never fires, no matter
// which links fail or nodes stall. Partial delivery is legal under faults
// (a packet may be wedged behind a permanent failure), as is the typed
// unreachability error; any other error is an engine-invariant violation
// and fails the fuzz run.
//
// The rotation covers the swap-rule policies only. Thm15 is deliberately
// absent: its vertical inqueues accept unconditionally, relying on the
// straight-priority drain that a down outlink silently drops, and the
// resulting refusal cannot propagate back up a full column chain within
// one synchronous step — the fuzzer found the overflow within seconds
// (corpus entry fc7d56795c6b55ee). Theorem 15's queue bound presumes
// reliable links; see docs/ROBUSTNESS.md.
func FuzzRouteUnderFaults(f *testing.F) {
	f.Add(int64(1), int64(10), uint8(0), uint8(8), uint8(2), uint8(4), uint8(0))
	f.Add(int64(2), int64(20), uint8(1), uint8(10), uint8(3), uint8(8), uint8(64))
	f.Add(int64(3), int64(30), uint8(2), uint8(6), uint8(3), uint8(2), uint8(255))
	f.Add(int64(4), int64(40), uint8(3), uint8(12), uint8(2), uint8(12), uint8(32))
	f.Fuzz(func(t *testing.T, seed, faultSeed int64, routerRaw, nRaw, kRaw, linksRaw, permRaw uint8) {
		n := 4 + int(nRaw)%13 // 4..16
		k := 2 + int(kRaw)%3  // 2..4
		topo := grid.NewSquareMesh(n)
		perm := workload.Random(topo, seed)

		var alg sim.Algorithm
		var cfg sim.Config
		switch routerRaw % 3 {
		case 0:
			alg = dex.NewAdapter(policies.DimOrderFIFO{})
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		case 1:
			if k < 3 {
				k = 3
			}
			alg = dex.NewAdapter(policies.ZigZag{FaultAware: true})
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		default:
			alg = RandZigZag{Seed: uint64(seed), FaultAware: true}
			cfg = sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		}
		sched, err := fault.Generate(topo, fault.Config{
			Seed:           faultSeed,
			Horizon:        20 * n,
			LinkFailures:   1 + int(linksRaw)%(2*n),
			MeanDownSteps:  1 + n/2,
			PermanentFrac:  float64(permRaw) / 512, // 0 .. ~0.5
			NodeStalls:     int(linksRaw) % 3,
			MeanStallSteps: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		cfg.CheckInvariants = true
		net := sim.MustNew(cfg)
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		_, err = net.Run(nil, alg, 500*n*n, nil)
		var ue *sim.UnreachableError
		if err != nil && !errors.As(err, &ue) {
			t.Fatalf("engine invariant violated under faults: %v", err)
		}
		// Delivered packets must still be minimal, and the queue bound must
		// hold — faults drop moves, they never create or misplace packets.
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
