package adversary

import (
	"testing"

	"meshroute/internal/bounds"
	"meshroute/internal/dex"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func TestDOParams(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{60, 1}, {120, 1}, {120, 2}, {240, 4}} {
		par, err := NewDOParams(tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if par.L < 1 || par.Steps() < 1 {
			t.Fatalf("degenerate %+v", par)
		}
		if par.P != (tc.k+1)*par.CN+par.DN {
			t.Fatalf("p wrong: %+v", par)
		}
	}
	if _, err := NewDOParams(8, 1); err == nil {
		t.Fatal("tiny mesh must fail")
	}
}

func TestDOConstructionLemmasHold(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{60, 1}, {120, 1}, {120, 2}} {
		c, err := NewDOConstruction(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		c.Verify = true
		res, err := c.Run(dimOrderFactory())
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if res.UndeliveredHard == 0 {
			t.Fatalf("n=%d k=%d: all delivered at the bound", tc.n, tc.k)
		}
		if res.Exchanges == 0 {
			t.Fatalf("n=%d k=%d: adversary never exchanged", tc.n, tc.k)
		}
	}
}

func TestDOConstructionPermutationValid(t *testing.T) {
	c, err := NewDOConstruction(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	perm := &workload.Permutation{Pairs: res.Permutation}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	if perm.Len() != c.Par.L*c.Par.P {
		t.Fatalf("permutation size %d, want %d", perm.Len(), c.Par.L*c.Par.P)
	}
}

func TestDOReplayEquivalence(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{60, 1}, {120, 2}} {
		c, err := NewDOConstruction(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(dimOrderFactory())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Replay(res, dimOrderFactory()); err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
	}
}

// The Theorem 15 router is destination-exchangeable dimension order, so the
// Section 5 construction applies to it too (with four queues of size k).
func TestDOConstructionAgainstThm15(t *testing.T) {
	thm15 := func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }
	// Four incoming queues of size k behave like a central queue of size
	// 4k (Section 5, "Other Queue Types"), plus one origin packet.
	c, err := NewDOConstruction(90, 4*1+1)
	if err != nil {
		t.Fatal(err)
	}
	c.Queues = sim.PerInlinkQueues
	c.NetK = 1
	res, err := c.Run(thm15())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("Thm15 beat the dim-order construction bound — impossible")
	}
	if _, err := c.Replay(res, thm15()); err != nil {
		t.Fatal(err)
	}
}

// The Theorem 15 upper bound meets the lower bound: completing the
// constructed permutation takes Θ(n²/k) — more than ⌊l⌋dn, less than a
// small multiple of n²/k.
func TestDOHardPermutationCompletionThm15(t *testing.T) {
	n, k := 90, 1
	thm15 := func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }
	c, err := NewDOConstruction(n, 4*k+1)
	if err != nil {
		t.Fatal(err)
	}
	c.Queues = sim.PerInlinkQueues
	c.NetK = k
	res, err := c.Run(thm15())
	if err != nil {
		t.Fatal(err)
	}
	net, err := c.Replay(res, thm15())
	if err != nil {
		t.Fatal(err)
	}
	makespan, done, err := RunToCompletion(net, thm15(), 100*n*n)
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("Theorem 15 router must deliver every permutation")
	}
	if makespan < res.Steps {
		t.Fatalf("makespan %d below the construction bound %d", makespan, res.Steps)
	}
	if err := bounds.Check(bounds.Instance{Topo: net.Topo, K: k}, makespan, bounds.Theorem15); err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d k=%d: lower bound=%d measured=%d", n, k, res.Steps, makespan)
}
