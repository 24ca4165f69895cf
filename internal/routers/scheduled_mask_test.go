package routers_test

import (
	"testing"

	"meshroute/internal/adversary"
	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// maskCheck wraps a policy whose inqueue rule reads NodeCtx.Scheduled and
// requires, at every Accept, that the recorded set is what the policy's own
// Schedule answers for the node at that moment: bit d set exactly when
// Schedule puts a packet on outlink d. That was how Accept used to obtain
// it (it ran Schedule again), so the check is that nothing between parts (a)
// and (c) — fault drops, the part (b) exchange — makes the two differ.
type maskCheck struct {
	dex.Policy
	t       *testing.T
	accepts *int
}

func (m maskCheck) Accept(c *dex.NodeCtx, offers dex.Offers, accept []bool) {
	var want grid.DirSet
	for d, idx := range m.Policy.Schedule(c) {
		if idx >= 0 {
			want = want.Set(grid.Dir(d))
		}
	}
	if got := c.Scheduled(); got != want {
		m.t.Errorf("%s, node %d, step %d: Scheduled() = %v, Schedule says %v", m.Name(), c.ID, c.Step, got, want)
	}
	*m.accepts++
	m.Policy.Accept(c, offers, accept)
}

// TestScheduledMaskIsPolicyDecision drives the three policies that use the
// swap rule through plain runs, a generated fault schedule (stalled nodes,
// dropped moves, the fault-aware zigzag's changing outlink mask) and the
// Section 3 adversary's exchange hook.
func TestScheduledMaskIsPolicyDecision(t *testing.T) {
	topo := grid.NewSquareMesh(12)
	sched, err := fault.Generate(topo, fault.Config{
		Seed: 11, Horizon: 120, LinkFailures: 25, MeanDownSteps: 6, NodeStalls: 6, MeanStallSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	swapRule := []dex.Policy{
		policies.DimOrderFIFO{}, policies.ZigZag{}, policies.ZigZag{FaultAware: true}, policies.StrayDimOrder{Delta: 2},
	}
	for _, p := range swapRule {
		for _, faults := range []*fault.Schedule{nil, sched} {
			_, stray := p.(policies.StrayDimOrder)
			net := sim.MustNew(sim.Config{
				Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: !stray,
				CheckInvariants: true, Faults: faults,
			})
			if err := workload.Random(topo, 5).Place(net); err != nil {
				t.Fatal(err)
			}
			var accepts int
			if _, err := net.Run(nil, dex.NewAdapter(maskCheck{p, t, &accepts}), 600, nil); err != nil {
				t.Fatalf("%s faults=%v: %v", p.Name(), faults != nil, err)
			}
			if accepts == 0 {
				t.Fatalf("%s: Accept never ran", p.Name())
			}
		}
	}

	// The adversary exchanges destinations between Schedule and Accept.
	for _, p := range []dex.Policy{policies.DimOrderFIFO{}, policies.ZigZag{}} {
		c, err := adversary.NewConstruction(60, 1)
		if err != nil {
			t.Fatal(err)
		}
		var accepts int
		res, err := c.Run(dex.NewAdapter(maskCheck{p, t, &accepts}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Exchanges == 0 || accepts == 0 {
			t.Fatalf("%s: %d exchanges, %d Accept calls: the hook was not exercised", p.Name(), res.Exchanges, accepts)
		}
	}
}
