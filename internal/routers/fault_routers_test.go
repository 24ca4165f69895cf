package routers

import (
	"strings"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// outageAt builds a permanent bidirectional failure of the given outlink
// of the given node, effective at step 1.
func outageAt(topo grid.Topology, at grid.NodeID, d grid.Dir) *fault.Schedule {
	nb, _ := topo.Neighbor(at, d)
	return (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 1, Kind: fault.LinkDown, Node: at, Dir: d, Permanent: true},
		{Step: 1, Kind: fault.LinkDown, Node: nb, Dir: d.Opposite(), Permanent: true},
	}}).Finalize()
}

func faultCfg(topo grid.Topology, k int, sched *fault.Schedule) sim.Config {
	return sim.Config{
		Topo: topo, K: k, Queues: sim.CentralQueue,
		RequireMinimal: true, CheckInvariants: true, Faults: sched,
	}
}

// TestZigZagFaultAwareAvoidsDownLink: a packet with two profitable
// directions sits at a node whose North outlink — the zigzag's seeded
// preference — is permanently down. The fault-aware zigzag must detour
// east without ever scheduling the failed link (zero fault drops); the
// oblivious one bumps into it.
func TestZigZagFaultAwareAvoidsDownLink(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	src := topo.ID(grid.XY(0, 0))
	dst := topo.ID(grid.XY(4, 4))

	run := func(p dex.Policy) (*sim.Network, int) {
		net := sim.MustNew(faultCfg(topo, 3, outageAt(topo, src, grid.North)))
		pk := net.NewPacket(src, dst)
		net.MustPlace(pk)
		steps, err := net.Run(nil, dex.NewAdapter(p), 200, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if !net.P.Delivered(pk) || int(net.P.Hops[pk]) != topo.Dist(src, dst) {
			t.Fatalf("%s: packet %+v not delivered minimally", p.Name(), net.PacketSnapshot(pk))
		}
		return net, steps
	}

	aware, awareSteps := run(policies.ZigZag{FaultAware: true})
	if aware.Metrics.FaultDrops != 0 {
		t.Fatalf("fault-aware zigzag scheduled a down link %d times", aware.Metrics.FaultDrops)
	}
	if awareSteps != topo.Dist(src, dst) {
		t.Fatalf("fault-aware zigzag took %d steps, want %d (no wasted step)", awareSteps, topo.Dist(src, dst))
	}

	oblivious, _ := run(policies.ZigZag{})
	if oblivious.Metrics.FaultDrops == 0 {
		t.Fatal("oblivious zigzag never hit the down link; the scenario is not exercising faults")
	}
}

// TestRandZigZagFaultAwareAvoidsDownLink mirrors the zigzag test for the
// randomized router.
func TestRandZigZagFaultAwareAvoidsDownLink(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	src := topo.ID(grid.XY(0, 0))
	dst := topo.ID(grid.XY(4, 4))
	net := sim.MustNew(faultCfg(topo, 3, outageAt(topo, src, grid.North)))
	pk := net.NewPacket(src, dst)
	net.MustPlace(pk)
	if _, err := net.Run(nil, RandZigZag{Seed: 7, FaultAware: true}, 200, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if !net.P.Delivered(pk) || int(net.P.Hops[pk]) != topo.Dist(src, dst) {
		t.Fatalf("packet %+v not delivered minimally", net.PacketSnapshot(pk))
	}
	if net.Metrics.FaultDrops != 0 {
		t.Fatalf("fault-aware rand-zigzag scheduled a down link %d times", net.Metrics.FaultDrops)
	}
}

// TestThm15QueueBoundNotFaultTolerant pins a negative result the fault
// fuzzer found: Theorem 15's bounded-queue argument presumes reliable
// links. The vertical inqueues accept unconditionally because the
// straight-priority rule guarantees a simultaneous drain — but a down
// vertical outlink drops that drain, and the refusal cannot propagate
// back up a full column chain within one synchronous step. Under the
// fuzzer's schedule the invariant checker must catch the overflow. (This
// is the model telling the truth about the theorem's premises, not an
// engine bug; see docs/ROBUSTNESS.md.)
func TestThm15QueueBoundNotFaultTolerant(t *testing.T) {
	// Reproduces fuzz corpus entry fc7d56795c6b55ee.
	n, k := 15, 2
	topo := grid.NewSquareMesh(n)
	sched, err := fault.Generate(topo, fault.Config{
		Seed: 126, Horizon: 20 * n,
		LinkFailures: 27, MeanDownSteps: 1 + n/2, PermanentFrac: 250.0 / 512,
		NodeStalls: 2, MeanStallSteps: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Thm15Config(topo, k)
	cfg.Faults = sched
	net := sim.MustNew(cfg)
	if err := workload.Random(topo, 454).Place(net); err != nil {
		t.Fatal(err)
	}
	_, err = net.Run(nil, dex.NewAdapter(policies.Thm15{}), 500*n*n, nil)
	if err == nil || !strings.Contains(err.Error(), "overflowed") {
		t.Fatalf("want the invariant checker to catch the thm15 queue overflow, got %v", err)
	}
}

// TestFaultAwareMatchesObliviousWithoutFaults pins the compatibility
// contract: without a fault schedule the fault-aware variants make exactly
// the same decisions as the originals (Up == Outlinks), so a full random
// permutation must finish with identical metrics.
func TestFaultAwareMatchesObliviousWithoutFaults(t *testing.T) {
	topo := grid.NewSquareMesh(10)
	run := func(alg sim.Algorithm) [4]int {
		net := sim.MustNew(sim.Config{Topo: topo, K: 3, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
		if err := workload.Random(topo, 5).Place(net); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, alg, 10000, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
		m := net.Metrics
		return [4]int{m.Makespan, m.TotalHops, m.SumDelay, m.MaxQueueLen}
	}
	if a, b := run(dex.NewAdapter(policies.ZigZag{})), run(dex.NewAdapter(policies.ZigZag{FaultAware: true})); a != b {
		t.Fatalf("zigzag metrics diverged without faults:\n%+v\nvs\n%+v", a, b)
	}
	if a, b := run(RandZigZag{Seed: 9}), run(RandZigZag{Seed: 9, FaultAware: true}); a != b {
		t.Fatalf("rand-zigzag metrics diverged without faults:\n%+v\nvs\n%+v", a, b)
	}
}

// TestHotPotatoOverfullNodeUnderFaults: a down outlink keeps a hot-potato
// packet at its node while the node still accepts an offer on every
// inlink, so with the invariant checker off it holds more than K = 4
// packets. Here the centre of a 5×5 mesh holds four packets, one per
// outlink, its East outlink alone fails, and each neighbour sends it one
// packet: five residents. Schedule must order and forward them all the
// same instead of indexing past a four-slot buffer.
func TestHotPotatoOverfullNodeUnderFaults(t *testing.T) {
	topo := grid.NewSquareMesh(5)
	c := topo.ID(grid.XY(2, 2))
	step := func(v grid.NodeID, d grid.Dir) grid.NodeID {
		nb, _ := topo.Neighbor(v, d)
		return nb
	}
	cfg := HotPotatoConfig(topo)
	cfg.CheckInvariants = false
	cfg.Faults = (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 1, Kind: fault.LinkDown, Node: c, Dir: grid.East, Permanent: true},
	}}).Finalize()
	net := sim.MustNew(cfg)
	for d := range grid.NumDirs {
		out, in := grid.Dir(d), grid.Dir(d).Opposite()
		net.MustPlace(net.NewPacket(c, step(step(c, out), out)))
		net.MustPlace(net.NewPacket(step(c, out), step(step(c, in), in)))
	}
	alg := dex.NewAdapter(policies.HotPotato{})
	if err := net.StepOnce(alg); err != nil {
		t.Fatal(err)
	}
	if got := net.Metrics.MaxNodeLoad; got <= cfg.K {
		t.Fatalf("the centre holds at most %d packets after step 1, want more than %d", got, cfg.K)
	}
	if _, err := net.Run(nil, alg, 100, nil); err != nil {
		t.Fatal(err)
	}
}
