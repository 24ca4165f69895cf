package routers

import (
	"slices"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// refAcceptRoundRobin is the two-pass acceptRoundRobin the one-pass code
// replaced: the swap rule over every offer, then, for each inlink of the
// rotation, a rescan of the offers for one arriving on it.
func refAcceptRoundRobin(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	free := c.K - c.QueueLen(0)
	sched := c.Scheduled()
	for i := range offers.Len() {
		if sched.Has(offers.Travel(i).Opposite()) {
			acc[i] = true
		}
	}
	if free <= 0 {
		return
	}
	start := grid.Dir(*c.State % grid.NumDirs)
	for j := grid.Dir(0); j < grid.NumDirs && free > 0; j++ {
		inlink := (start + j) % grid.NumDirs
		for i := range offers.Len() {
			if acc[i] || offers.Travel(i).Opposite() != inlink {
				continue
			}
			acc[i] = true
			free--
			break
		}
	}
}

// refAcceptDimOrderReserving is the two-pass acceptDimOrderReserving the
// one-pass code replaced.
func refAcceptDimOrderReserving(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	sched := c.Scheduled()
	for i := range offers.Len() {
		if sched.Has(offers.Travel(i).Opposite()) {
			acc[i] = true
		}
	}
	occ := c.QueueLen(0)
	start := grid.Dir(*c.State % grid.NumDirs)
	for j := grid.Dir(0); j < grid.NumDirs; j++ {
		inlink := (start + j) % grid.NumDirs
		for i := range offers.Len() {
			if acc[i] || offers.Travel(i).Opposite() != inlink {
				continue
			}
			if offers.Travel(i).Horizontal() {
				if occ < c.K-1 {
					acc[i] = true
					occ++
				}
			} else if occ < c.K {
				acc[i] = true
				occ++
			}
			break
		}
	}
}

// refThm15Accept is Thm15.Accept as it read before it took dex.Offers.
func refThm15Accept(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	for i := range offers.Len() {
		if !offers.Travel(i).Horizontal() {
			acc[i] = true
			continue
		}
		acc[i] = c.QueueLen(uint8(offers.Travel(i).Opposite())) < c.K
	}
}

// acceptOracle wraps a policy. At every Accept it runs the reference on the
// same context and offers into a vector of its own, then the policy's Accept
// into the engine's, and fails on the first call where the two differ.
type acceptOracle struct {
	dex.Policy
	t    *testing.T
	ref  func(*dex.NodeCtx, dex.Offers, []bool)
	seen *acceptTally
}

// acceptTally counts Accept calls, those with several offers and those that
// refused one, so the test can tell the rotation ran.
type acceptTally struct{ calls, multi, refusing int }

func (o acceptOracle) Accept(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	want := make([]bool, len(acc))
	o.ref(c, offers, want)
	o.Policy.Accept(c, offers, acc)
	if !slices.Equal(acc, want) {
		travel := make([]grid.Dir, offers.Len())
		for i := range travel {
			travel[i] = offers.Travel(i)
		}
		o.t.Fatalf("%s step %d node %v: travel %v, k=%d, occupancy %d, scheduled %v, rotation %d: one-pass accepts %v, reference %v",
			o.Name(), c.Step, c.Coord(), travel, c.K, c.QueueLen(0), c.Scheduled(), *c.State%grid.NumDirs, acc, want)
	}
	o.seen.calls++
	if offers.Len() > 1 {
		o.seen.multi++
	}
	if slices.Contains(want, false) {
		o.seen.refusing++
	}
}

// TestOnePassAcceptMatchesReference holds the one-pass inqueue policies to
// their two-pass references through whole runs: dimorder, zigzag, zigzag
// fault-aware under a fault schedule, stray-dimorder and thm15, on a mesh
// and a torus, k ∈ {1, 2, 4}, over a random, the transpose and the reversal
// permutation.
func TestOnePassAcceptMatchesReference(t *testing.T) {
	const n = 8
	type policyCase struct {
		pol    dex.Policy
		ref    func(*dex.NodeCtx, dex.Offers, []bool)
		cfg    func(topo grid.Topology, k int) sim.Config
		faults bool
	}
	// The engine's stray bound is a mesh rectangle, which the overshoot rule
	// does not keep across a torus seam; the inqueue policy is under test.
	stray := func(topo grid.Topology, k int) sim.Config {
		return sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, MaxStray: 2 * n, CheckInvariants: true}
	}
	cases := []policyCase{
		{policies.DimOrderFIFO{}, refAcceptDimOrderReserving, minimalCentral, false},
		{policies.ZigZag{}, refAcceptRoundRobin, minimalCentral, false},
		{policies.ZigZag{FaultAware: true}, refAcceptRoundRobin, minimalCentral, true},
		{policies.StrayDimOrder{Delta: 1}, refAcceptRoundRobin, stray, false},
		{policies.Thm15{}, refThm15Accept, Thm15Config, false},
	}
	for _, pc := range cases {
		var seen acceptTally
		for _, topo := range []grid.Topology{grid.NewSquareMesh(n), grid.NewSquareTorus(n)} {
			for _, k := range []int{1, 2, 4} {
				for _, perm := range []*workload.Permutation{workload.Random(topo, int64(k)), workload.Transpose(topo), workload.Reversal(topo)} {
					cfg := pc.cfg(topo, k)
					if pc.faults {
						sched, err := fault.Generate(topo, fault.Config{
							Seed: int64(k), Horizon: 200, LinkFailures: 12, MeanDownSteps: 5, NodeStalls: 3, MeanStallSteps: 4,
						})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = sched
					}
					net := sim.MustNew(cfg)
					if err := perm.Place(net); err != nil {
						t.Fatal(err)
					}
					alg := dex.NewAdapter(acceptOracle{pc.pol, t, pc.ref, &seen})
					if _, err := net.Run(nil, alg, 40*n, nil); err != nil {
						t.Fatalf("%s torus=%v k=%d: %v", pc.pol.Name(), topo.Wraparound(), k, err)
					}
				}
			}
		}
		if seen.multi == 0 || seen.refusing == 0 {
			t.Fatalf("%s: %+v: the rotation was not exercised", pc.pol.Name(), seen)
		}
		t.Logf("%s: %+v", pc.pol.Name(), seen)
	}
}
