package meshroute_test

import (
	"slices"
	"testing"

	"meshroute"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// inlinkSpy wraps a router and fails unless the offers of every Accept call
// travel in pairwise distinct directions — the contract sim.Algorithm and
// dex.Policy document, and what the one-pass inqueue policies rely on.
type inlinkSpy struct {
	sim.Algorithm
	t    *testing.T
	seen *offerTally
}

// offerTally counts Accept calls, and those holding two offers from one
// sender.
type offerTally struct{ calls, sameSender int }

func (s inlinkSpy) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	var seen grid.DirSet
	var senders []grid.NodeID
	for _, o := range offers {
		if seen.Has(o.Travel) {
			s.t.Fatalf("%s step %d: two offers into node %d travel %v: %v", s.Name(), net.Step(), n.ID, o.Travel, offers)
		}
		seen = seen.Set(o.Travel)
		if slices.Contains(senders, o.From) {
			s.seen.sameSender++
		}
		senders = append(senders, o.From)
	}
	s.seen.calls++
	s.Algorithm.Accept(net, n, offers, acc)
}

// placePermutations places m random permutations at once: m packets per
// node, so that nodes hold co-residents from step 1.
func placePermutations(net *sim.Network, m int) {
	for seed := int64(1); seed <= int64(m); seed++ {
		for _, pr := range workload.Random(net.Topo, seed).Pairs {
			net.MustPlace(net.NewPacket(pr.Src, pr.Dst))
		}
	}
}

// placeDiagonal places four packets at every node, all bound for the node
// one step east and one north of it (wrapping). On a side-2 torus that node
// is two hops away over both East and West, and over both North and South.
func placeDiagonal(net *sim.Network) {
	topo := net.Topo
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		c := topo.CoordOf(id)
		dst := topo.ID(grid.XY((c.X+1)%topo.Width(), (c.Y+1)%topo.Height()))
		for range 4 {
			net.MustPlace(net.NewPacket(id, dst))
		}
	}
}

// TestOffersArriveOnDistinctInlinks runs every registry router on a mesh and
// on tori of side 1, 2 and 8, from three random permutations placed at once
// and from placeDiagonal, and holds every Accept call to distinct travel
// directions. On the side-2 torus a node's East and West neighbour is one
// node, so a sender can offer it two packets in one step.
func TestOffersArriveOnDistinctInlinks(t *testing.T) {
	topos := []grid.Topology{grid.NewSquareMesh(8), grid.NewSquareTorus(1), grid.NewSquareTorus(2), grid.NewSquareTorus(8)}
	placements := []func(*sim.Network){func(net *sim.Network) { placePermutations(net, 3) }, placeDiagonal}
	var sameSender int
	for _, name := range meshroute.RouterNames() {
		spec, err := meshroute.LookupRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range topos {
			for _, place := range placements {
				cfg := spec.Config(topo, 4)
				if cfg.MaxStray > 0 {
					// The engine's stray bound is a mesh rectangle, which the
					// overshoot rule does not keep across a torus seam; the
					// offers are under test here, not the bound.
					cfg.MaxStray = topo.Width() + topo.Height()
				}
				net, err := sim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				place(net)
				var seen offerTally
				if _, err := net.Run(nil, inlinkSpy{spec.New(), t, &seen}, 200, nil); err != nil {
					t.Fatalf("%s on %dx%d torus=%v: %v", name, topo.Width(), topo.Height(), topo.Wraparound(), err)
				}
				if topo.N() > 1 && seen.calls == 0 {
					t.Fatalf("%s on %dx%d torus=%v: Accept never ran", name, topo.Width(), topo.Height(), topo.Wraparound())
				}
				sameSender += seen.sameSender
			}
		}
	}
	if sameSender == 0 {
		t.Fatal("no sender ever offered one node two packets: the side-2 torus case was not exercised")
	}
}

// decision is one policy answer of a step: a Schedule result, or the accept
// vector of at most four offers (sched is then unset).
type decision struct {
	node   grid.NodeID
	sched  [grid.NumDirs]int
	offers int
	accept [grid.NumDirs]bool
}

// decisionLog wraps a router and records its decisions in call order.
type decisionLog struct {
	sim.Algorithm
	log []decision
}

func (d *decisionLog) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	s := d.Algorithm.Schedule(net, n)
	d.log = append(d.log, decision{node: n.ID, sched: s})
	return s
}

func (d *decisionLog) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	d.Algorithm.Accept(net, n, offers, acc)
	rec := decision{node: n.ID, offers: len(offers)}
	copy(rec.accept[:], acc)
	d.log = append(d.log, rec)
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []decision) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

// at returns log[i], or the zero decision past the end.
func at(log []decision, i int) decision {
	if i < len(log) {
		return log[i]
	}
	return decision{}
}

// exchangePair returns the first two co-resident packets, in node order,
// with equal profitable sets and different destinations, both at least two
// hops from their destination so that neither is delivered this step under
// either destination; ok is false if there is none.
func exchangePair(net *sim.Network) (p, q sim.PacketID, ok bool) {
	st := &net.P
	far := func(x sim.PacketID) bool { return net.Topo.Dist(st.At[x], st.Dst[x]) >= 2 }
	for _, id := range net.Occupied() {
		res := net.PacketsOf(net.Node(id))
		for i, a := range res {
			for _, b := range res[i+1:] {
				if st.Prof[a] == st.Prof[b] && st.Dst[a] != st.Dst[b] && far(a) && far(b) {
					return a, b, true
				}
			}
		}
	}
	return 0, 0, false
}

// TestExchangeInvisibleToDecisions is Lemma 10 at the level of decisions,
// for every registry router built on the dex adapter. Twin networks run the
// same instance; at step T a part (b) hook swaps, in one twin only and
// through ExchangeDst, the destinations of two co-resident packets with equal
// profitable sets (exchangePair). Every Schedule answer and accept vector of
// step T must be the twin's, and so must those of every later step while the
// two swapped packets still show the same profitable sets in both twins and
// stay at least two hops from their destinations.
func TestExchangeInvisibleToDecisions(t *testing.T) {
	const n = 8
	for _, name := range meshroute.RouterNames() {
		spec, _ := meshroute.LookupRouter(name)
		if !spec.DestinationExchangeable() {
			continue
		}
		for _, topo := range []grid.Topology{grid.NewSquareMesh(n), grid.NewSquareTorus(n)} {
			windows, compared := 0, 0
			for swapAt := 2; swapAt <= 12; swapAt++ {
				var p, q sim.PacketID
				twin := func(swap bool) (*sim.Network, *decisionLog) {
					cfg := spec.Config(topo, 3)
					if cfg.MaxStray > 0 {
						// A swap moves the rectangle the bound is checked
						// against; the decisions, not the bound, are tested.
						cfg.MaxStray = 2 * n
					}
					net := sim.MustNew(cfg)
					placePermutations(net, 2)
					net.SetExchange(func(net *sim.Network, step int, _ []sim.Move) {
						if step != swapAt {
							return
						}
						var ok bool
						if p, q, ok = exchangePair(net); ok && swap {
							net.ExchangeDst(p, q)
						}
					})
					return net, &decisionLog{Algorithm: spec.New()}
				}
				netA, logA := twin(false)
				netB, logB := twin(true)
				inWindow := func() bool {
					for _, x := range []sim.PacketID{p, q} {
						for _, net := range []*sim.Network{netA, netB} {
							if net.P.Delivered(x) || net.Topo.Dist(net.P.At[x], net.P.Dst[x]) < 2 {
								return false
							}
						}
						if netA.P.Prof[x] != netB.P.Prof[x] {
							return false
						}
					}
					return true
				}
				for step := 1; !netA.Done(); step++ {
					logA.log, logB.log = logA.log[:0], logB.log[:0]
					errA, errB := netA.StepOnce(logA), netB.StepOnce(logB)
					if errA != nil || errB != nil {
						t.Fatalf("%s step %d: %v / %v", name, step, errA, errB)
					}
					if step < swapAt {
						continue
					}
					if p == sim.NoPacket {
						break
					}
					if i := firstDiff(logA.log, logB.log); i >= 0 {
						t.Fatalf("%s torus=%v: the exchange of packets %d and %d at step %d changed decision %d of step %d: %+v, want %+v",
							name, topo.Wraparound(), p.ID(), q.ID(), swapAt, i, step, at(logB.log, i), at(logA.log, i))
					}
					compared++
					if !inWindow() {
						break
					}
				}
				if p != sim.NoPacket {
					windows++
				}
			}
			if windows == 0 {
				t.Fatalf("%s torus=%v: no exchangeable pair at any swap step", name, topo.Wraparound())
			}
			t.Logf("%s torus=%v: %d exchanges, %d steps compared", name, topo.Wraparound(), windows, compared)
		}
	}
}
