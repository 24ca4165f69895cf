package adversary

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func TestParamsSatisfyConstraints(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{60, 1}, {120, 1}, {216, 1}, {128, 2}, {384, 2}, {864, 4},
	} {
		par, err := NewParams(tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if par.CN > tc.n/(2*(tc.k+2)) {
			t.Errorf("cn too large: %d", par.CN)
		}
		if par.DN > 2*tc.n/5 {
			t.Errorf("dn too large: %d", par.DN)
		}
		if par.L < 1 || par.Steps() < 1 {
			t.Errorf("n=%d k=%d: degenerate params %+v", tc.n, tc.k, par)
		}
		// p = ⌊(k+1)(cn + c²n) + dn⌋ recomputed in floating point.
		c := float64(par.CN) / float64(tc.n)
		pf := float64(tc.k+1)*(c*float64(tc.n)+c*c*float64(tc.n)) + float64(par.DN)
		if par.P != int(pf) {
			t.Errorf("n=%d k=%d: p=%d, float says %v", tc.n, tc.k, par.P, pf)
		}
	}
}

func TestParamsRejectTinyMesh(t *testing.T) {
	if _, err := NewParams(8, 1); err == nil {
		t.Fatal("n=8 must be rejected")
	}
	if _, err := NewParams(60, 0); err == nil {
		t.Fatal("k=0 must be rejected")
	}
}

func TestMinN(t *testing.T) {
	if MinN(1) != 216 {
		t.Fatalf("MinN(1) = %d", MinN(1))
	}
	// Paper guarantee: params must exist at MinN.
	for k := 1; k <= 4; k++ {
		if _, err := NewParams(MinN(k), k); err != nil {
			t.Fatalf("k=%d at MinN: %v", k, err)
		}
	}
}

func TestRosterIsValidPartialPermutation(t *testing.T) {
	c, err := NewConstruction(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := c.buildRoster()
	if err != nil {
		t.Fatal(err)
	}
	if len(roster) != 2*c.Par.P*c.Par.L {
		t.Fatalf("roster size %d, want %d", len(roster), 2*c.Par.P*c.Par.L)
	}
	perm := &workload.Permutation{}
	for _, re := range roster {
		perm.Pairs = append(perm.Pairs, workload.Pair{
			Src: c.node(re.src.X, re.src.Y),
			Dst: c.node(re.dst.X, re.dst.Y),
		})
	}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	cn := c.Par.CN
	for _, re := range roster {
		// All sources in the 1-box.
		if re.src.X > cn-1 || re.src.Y > cn-1 || re.src.X < 0 || re.src.Y < 0 {
			t.Fatalf("source %v outside 1-box", re.src)
		}
		// Boundary conditions of Step 1.
		if re.src.X == cn-1 && (re.kind != KindN || re.i != 1) {
			t.Fatalf("N_1-column holds a %v_%d packet", re.kind, re.i)
		}
		if re.src.Y == cn-1 && re.src.X < cn-1 && (re.kind != KindE || re.i != 1) {
			t.Fatalf("E_1-row holds a %v_%d packet", re.kind, re.i)
		}
		// Destinations outside the i-box, in the right column/row.
		switch re.kind {
		case KindN:
			if re.dst.X != c.nCol(re.i) || re.dst.Y <= c.eRow(re.i) {
				t.Fatalf("bad N_%d destination %v", re.i, re.dst)
			}
			if re.dst.Y >= c.Par.N {
				t.Fatalf("N destination off mesh: %v", re.dst)
			}
		case KindE:
			if re.dst.Y != c.eRow(re.i) || re.dst.X <= c.nCol(re.i) {
				t.Fatalf("bad E_%d destination %v", re.i, re.dst)
			}
			if re.dst.X >= c.Par.N {
				t.Fatalf("E destination off mesh: %v", re.dst)
			}
		default:
			t.Fatal("roster contains non-construction packet")
		}
		// Classes in range, i-box/kind consistency via kindOf.
		kind, i := c.kindOf(c.node(re.dst.X, re.dst.Y))
		if kind != re.kind || i != re.i {
			t.Fatalf("kindOf(%v) = %v_%d, want %v_%d", re.dst, kind, i, re.kind, re.i)
		}
	}
}

func dimOrderFactory() sim.Algorithm { return dex.NewAdapter(routers.DimOrderFIFO{}) }
func zigzagFactory() sim.Algorithm   { return dex.NewAdapter(routers.ZigZag{}) }

// The construction must run to its full length with every lemma holding,
// and leave hard packets undelivered (Corollary 9).
func TestConstructionLemmasHoldDimOrder(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{60, 1}, {120, 1}, {128, 2}} {
		c, err := NewConstruction(tc.n, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		c.Verify = true
		res, err := c.Run(dimOrderFactory())
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if res.UndeliveredHard == 0 {
			t.Fatalf("n=%d k=%d: Corollary 9 failed, nothing undelivered", tc.n, tc.k)
		}
		if res.Exchanges == 0 {
			t.Fatalf("n=%d k=%d: no exchanges happened — adversary idle", tc.n, tc.k)
		}
	}
}

func TestConstructionLemmasHoldZigZag(t *testing.T) {
	c, err := NewConstruction(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Verify = true
	res, err := c.Run(zigzagFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("Corollary 9 failed for zigzag")
	}
}

// Lemma 12: replaying the constructed permutation with no exchanges gives
// the exact same configuration. This validates destination-exchangeability
// end to end.
func TestReplayEquivalenceDimOrder(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{60, 1}, {120, 1}, {128, 2}} {
		c, err := NewConstruction(tc.n, tc.k)
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

func TestReplayEquivalenceZigZag(t *testing.T) {
	c, err := NewConstruction(120, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(zigzagFactory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(res, zigzagFactory()); err != nil {
		t.Fatal(err)
	}
}

func TestReplayEquivalenceWithIdentityPadding(t *testing.T) {
	c, err := NewConstruction(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.PadIdentity = true
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(res, dimOrderFactory()); err != nil {
		t.Fatal(err)
	}
}

// Theorem 13/14 measured: the constructed permutation takes at least
// ⌊l⌋·d·n steps end to end.
func TestHardPermutationMeetsBound(t *testing.T) {
	for _, k := range []int{1, 2} {
		n := 120 * k
		cap := 20000
		c, err := NewConstruction(n, k)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Pipeline(nil, dimOrderFactory, cap)
		if err != nil {
			t.Fatal(err)
		}
		perm, bound, makespan, done := out.Permutation, out.Steps, out.Makespan, out.Done
		if len(perm) == 0 || bound < 1 {
			t.Fatalf("degenerate result: %d pairs, bound %d", len(perm), bound)
		}
		if done && makespan < bound {
			t.Fatalf("makespan %d beat the Theorem 13 bound %d", makespan, bound)
		}
		t.Logf("n=%d k=%d: bound=%d measured=%d done=%v permutation=%d packets", n, k, bound, makespan, done, len(perm))
	}
}

// The constructed permutation is hard specifically because of the
// exchanges: replaying the *initial* (pre-exchange) assignment gives the
// algorithm an easy instance by comparison. (Ablation A1.)
func TestExchangeAblation(t *testing.T) {
	n, k := 120, 1
	c, err := NewConstruction(n, k)
	if err != nil {
		t.Fatal(err)
	}
	roster, err := c.buildRoster()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	// Count undelivered hard packets at step ⌊l⌋dn under the *initial*
	// assignment (no adversary at all).
	net := sim.MustNew(sim.Config{Topo: c.Topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
	for _, re := range roster {
		net.MustPlace(net.NewPacket(c.node(re.src.X, re.src.Y), c.node(re.dst.X, re.dst.Y)))
	}
	for i := 0; i < res.Steps; i++ {
		if err := net.StepOnce(dimOrderFactory()); err != nil {
			t.Fatal(err)
		}
	}
	undelivInitial := net.TotalPackets() - net.DeliveredCount()
	t.Logf("undelivered at bound: constructed=%d initial=%d", res.UndeliveredHard, undelivInitial)
	if res.UndeliveredHard == 0 {
		t.Fatal("constructed permutation must have undelivered packets at the bound")
	}
}

func TestTorusEmbedding(t *testing.T) {
	// Section 5: apply the construction to a contiguous (n/2)×(n/2)
	// submesh of the torus.
	m := 60 // submesh side
	torus := grid.NewSquareTorus(2 * m)
	par, err := NewParams(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &Construction{Par: par, Topo: torus, OffX: 7, OffY: 11, H: 1, Verify: true}
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	if res.UndeliveredHard == 0 {
		t.Fatal("torus construction must leave packets undelivered")
	}
	if _, err := c.Replay(res, dimOrderFactory()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigsEqualDetectsDifferences(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	mk := func(dst grid.NodeID) *sim.Network {
		net := sim.MustNew(sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue})
		net.MustPlace(net.NewPacket(0, dst))
		return net
	}
	if err := ConfigsEqual(mk(5), mk(5)); err != nil {
		t.Fatalf("identical networks must compare equal: %v", err)
	}
	if err := ConfigsEqual(mk(5), mk(6)); err == nil {
		t.Fatal("different destinations must be detected")
	}
}

// TestSchedTableForgetsEarlierSteps: the table is never cleared, so a
// packet that moved in an earlier step and not in this one must not look
// scheduled, and a fresh table must hold nothing at step 1.
func TestSchedTableForgetsEarlierSteps(t *testing.T) {
	net := sim.MustNew(sim.Config{Topo: grid.NewSquareMesh(4), K: 2, Queues: sim.CentralQueue})
	a, b := net.NewPacket(0, 5), net.NewPacket(1, 6)
	s := newSchedTable(net)

	s.record(1, []sim.Move{{P: a, To: 4}})
	if to, ok := s.target(a); !ok || to != 4 {
		t.Fatalf("step 1: target(a) = %d,%v, want 4,true", to, ok)
	}
	if _, ok := s.target(b); ok {
		t.Fatal("step 1: b never moved but looks scheduled")
	}

	s.record(2, []sim.Move{{P: b, To: 2}})
	if _, ok := s.target(a); ok {
		t.Fatal("step 2: a's step-1 move still looks scheduled")
	}
	if to, ok := s.target(b); !ok || to != 2 {
		t.Fatalf("step 2: target(b) = %d,%v, want 2,true", to, ok)
	}

	s.record(3, nil)
	if _, ok := s.target(b); ok {
		t.Fatal("step 3: nothing moves but b looks scheduled")
	}
}
