package adversary

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
)

func strayFactory(delta int) func() sim.Algorithm {
	return func() sim.Algorithm { return dex.NewAdapter(policies.StrayDimOrder{Delta: delta}) }
}

func TestDeltaParams(t *testing.T) {
	// delta = 0 must reduce to the minimal-path params.
	a, err := NewDeltaParams(120, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewParams(120, 1)
	if a != b {
		t.Fatalf("delta=0 params differ: %+v vs %+v", a, b)
	}
	par, err := NewDeltaParams(480, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// p = (δ+1)·⌊(k+1)(cn+c²n)+dn⌋ with the shrunken c, d.
	pBase := (2*par.CN*(480+par.CN) + par.DN*480) / 480
	if par.P != 2*pBase {
		t.Fatalf("p = %d, want (δ+1)·pBase = %d", par.P, 2*pBase)
	}
	if par.L < 1 {
		t.Fatalf("degenerate: %+v", par)
	}
	if _, err := NewDeltaParams(60, 1, 1); err == nil {
		t.Fatal("n=60 too small for delta=1")
	}
	if _, err := NewDeltaParams(480, 1, -1); err == nil {
		t.Fatal("negative delta must fail")
	}
}

func TestDeltaConstructionAgainstStrayRouter(t *testing.T) {
	const n, k, delta = 480, 1, 1
	c, err := NewDeltaConstruction(n, k, delta)
	if err != nil {
		t.Fatal(err)
	}
	c.Verify = true
	res, err := c.Run(strayFactory(delta)())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("delta construction: everything delivered at the bound")
	}
	t.Logf("n=%d k=%d delta=%d: bound=%d exchanges=%d undelivered=%d",
		n, k, delta, res.Steps, res.Exchanges, res.UndeliveredHard)
}

func TestDeltaReplayEquivalence(t *testing.T) {
	const n, k, delta = 480, 1, 1
	c, err := NewDeltaConstruction(n, k, delta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(strayFactory(delta)())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(res, strayFactory(delta)()); err != nil {
		t.Fatal(err)
	}
}

// The minimal construction still applies to the stray router when its
// budget is zero (it degenerates to plain dimension order).
func TestStrayRouterZeroBudgetIsMinimal(t *testing.T) {
	c, err := NewConstruction(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Verify = true
	res, err := c.Run(strayFactory(0)())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("no undelivered packets")
	}
	if _, err := c.Replay(res, strayFactory(0)()); err != nil {
		t.Fatal(err)
	}
}
