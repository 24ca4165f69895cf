package dex

import (
	"strings"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// spyPolicy records what it is shown, to verify the information barrier.
type spyPolicy struct {
	views     []View
	offers    []offerSeen
	initCalls int
	scheduled grid.Dir
}

// offerSeen is one offer as an inqueue policy may read it through Offers.
type offerSeen struct {
	From       grid.NodeID
	Travel     grid.Dir
	Source     grid.NodeID
	State      uint64
	Profitable grid.DirSet
}

func (s *spyPolicy) Name() string { return "spy" }

func (s *spyPolicy) InitNode(c *NodeCtx) {
	s.initCalls++
	// Node state may depend on the profitable outlinks of the packet
	// that originates there.
	if c.Len() > 0 {
		*c.State = uint64(c.Profitable(0))
	}
}

func (s *spyPolicy) Schedule(c *NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	for i := range c.Len() {
		s.views = append(s.views, c.View(i))
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if c.Profitable(i).Has(d) && sched[d] < 0 {
				sched[d] = i
				s.scheduled = d
				break
			}
		}
	}
	return sched
}

func (s *spyPolicy) Accept(c *NodeCtx, offers Offers, acc []bool) {
	free := c.K - c.QueueLen(0)
	for i := range offers.Len() {
		s.offers = append(s.offers, offerSeen{
			From: offers.From(i), Travel: offers.Travel(i), Source: offers.Source(i),
			State: offers.State(i), Profitable: offers.Profitable(i),
		})
		if free > 0 {
			acc[i] = true
			free--
		}
	}
}

func (s *spyPolicy) Update(c *NodeCtx) {
	for i := range c.Len() {
		c.SetPacketState(i, c.PacketState(i)+1)
	}
}

func newNet(n, k int) *sim.Network {
	return sim.MustNew(sim.Config{
		Topo:            grid.NewSquareMesh(n),
		K:               k,
		Queues:          sim.CentralQueue,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
}

func TestAdapterRoutesAndHidesDestination(t *testing.T) {
	net := newNet(8, 2)
	topo := net.Topo
	p := net.NewPacket(topo.ID(grid.XY(1, 1)), topo.ID(grid.XY(4, 5)))
	net.MustPlace(p)
	spy := &spyPolicy{}
	if _, err := net.Run(nil, NewAdapter(spy), 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if !net.P.Delivered(p) {
		t.Fatal("undelivered")
	}
	if spy.initCalls != 1 {
		t.Fatalf("InitNode called %d times, want 1", spy.initCalls)
	}
	// The views never contain coordinates of the destination — only the
	// profitable sets, which at every point before delivery must be
	// nonempty and only North/East (destination is northeast).
	if len(spy.views) == 0 {
		t.Fatal("policy saw no views")
	}
	for _, v := range spy.views {
		if v.Profitable == 0 {
			t.Fatal("view with empty profitable set for undelivered packet")
		}
		if v.Profitable.Has(grid.South) || v.Profitable.Has(grid.West) {
			t.Fatalf("northeast-bound packet shows %v", v.Profitable)
		}
		if v.Source != net.P.Src[p] {
			t.Fatalf("source mismatch: %v", v.Source)
		}
	}
}

func TestAdapterPacketStateUpdates(t *testing.T) {
	net := newNet(8, 2)
	topo := net.Topo
	p := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(3, 0)))
	net.MustPlace(p)
	spy := &spyPolicy{}
	adapter := NewAdapter(spy)
	if err := net.StepOnce(adapter); err != nil {
		t.Fatal(err)
	}
	// Update incremented the state of the packet at its (new) node.
	if net.P.State[p] != 1 {
		t.Fatalf("packet state = %d, want 1", net.P.State[p])
	}
}

func TestAdapterNodeStateFromOriginProfitable(t *testing.T) {
	net := newNet(8, 2)
	topo := net.Topo
	src := topo.ID(grid.XY(2, 2))
	p := net.NewPacket(src, topo.ID(grid.XY(6, 2)))
	net.MustPlace(p)
	spy := &spyPolicy{}
	if err := net.StepOnce(NewAdapter(spy)); err != nil {
		t.Fatal(err)
	}
	want := uint64(grid.DirSet(0).Set(grid.East))
	if got := net.Node(src).State; got != want {
		t.Fatalf("node state = %d, want %d (profitable outlinks of origin packet)", got, want)
	}
}

func TestOfferViewsMeasuredFromSender(t *testing.T) {
	net := newNet(8, 2)
	topo := net.Topo
	// Two packets racing into the same node from different sides.
	a := net.NewPacket(topo.ID(grid.XY(2, 3)), topo.ID(grid.XY(6, 3))) // eastbound through (3,3)
	bq := net.NewPacket(topo.ID(grid.XY(3, 2)), topo.ID(grid.XY(3, 6)))
	net.MustPlace(a)
	net.MustPlace(bq)
	spy := &spyPolicy{}
	if _, err := net.Run(nil, NewAdapter(spy), 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if len(spy.offers) == 0 {
		t.Fatal("no offers observed")
	}
	for _, o := range spy.offers {
		// Profitable-from-sender always contains the travel direction
		// for a minimal router.
		if !o.Profitable.Has(o.Travel) {
			t.Fatalf("offer travel %v not in profitable-from-sender %v", o.Travel, o.Profitable)
		}
	}
}

// The decisive property: a dex policy cannot distinguish two networks whose
// packets have exchanged destinations with identical profitable views. Run
// the same instance with destinations swapped between two same-view packets
// and check the trajectories coincide while the views are identical.
func TestExchangeInvisibility(t *testing.T) {
	run := func(swap bool) []grid.NodeID {
		net := newNet(8, 3)
		topo := net.Topo
		d1, d2 := topo.ID(grid.XY(6, 6)), topo.ID(grid.XY(7, 5))
		if swap {
			d1, d2 = d2, d1
		}
		a := net.NewPacket(topo.ID(grid.XY(0, 0)), d1)
		b := net.NewPacket(topo.ID(grid.XY(0, 1)), d2)
		net.MustPlace(a)
		net.MustPlace(b)
		spy := &spyPolicy{}
		adapter := NewAdapter(spy)
		// Both packets northeast-bound with both dims profitable for
		// the first several steps: views identical, so the policy's
		// decisions must be identical. Track positions step by step
		// while views coincide.
		var trace []grid.NodeID
		for i := 0; i < 4; i++ {
			if err := net.StepOnce(adapter); err != nil {
				t.Fatal(err)
			}
			trace = append(trace, net.P.At[a], net.P.At[b])
		}
		return trace
	}
	t1, t2 := run(false), run(true)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("exchange visible at %d: %v vs %v", i, t1, t2)
		}
	}
}

// TestProfFollowsExchange pins the cache-refresh half of part (b): a hook
// that swaps the destinations of two residents with different profitable
// sets through ExchangeDst, and the policy sees the new sets — in the same
// step's Offers (measured at the sender) and, for a packet that did not
// move, at the next Schedule. CheckInvariants is off so that what is tested
// is ExchangeDst's refresh, not the checker. A swap that turns a scheduled
// move non-minimal is still refused by the post-exchange check.
func TestProfFollowsExchange(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	net := sim.MustNew(sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true})
	at := func(x, y int) grid.NodeID { return topo.ID(grid.XY(x, y)) }
	// p and q share (2,2) and both want East: p is sent, q stays put.
	// r heads north from the corner.
	p := net.NewPacket(at(2, 2), at(6, 2))
	q := net.NewPacket(at(2, 2), at(5, 2))
	r := net.NewPacket(at(0, 0), at(0, 7))
	for _, id := range []sim.PacketID{p, q, r} {
		net.MustPlace(id)
	}
	st := &net.P
	net.SetExchange(func(n *sim.Network, step int, moves []sim.Move) {
		switch step {
		case 1: // r's scheduled move north stays minimal toward (5,2)
			n.ExchangeDst(q, r)
		case 2: // p is moving east at (3,2); (0,7) lies behind it
			n.ExchangeDst(p, q)
		}
	})
	spy := &spyPolicy{}
	alg := NewAdapter(spy)
	if err := net.StepOnce(alg); err != nil {
		t.Fatal(err)
	}
	ne := grid.DirSet(0).Set(grid.North).Set(grid.East)
	nw := grid.DirSet(0).Set(grid.North).Set(grid.West)
	sawOffer := false
	for _, o := range spy.offers {
		if o.Source == st.Src[r] {
			sawOffer = true
			if o.Profitable != ne {
				t.Fatalf("step 1 offer of the exchanged packet shows %v from its sender, want %v", o.Profitable, ne)
			}
		}
	}
	if !sawOffer {
		t.Fatal("the exchanged packet was never offered")
	}
	if st.At[q] != at(2, 2) {
		t.Fatalf("q moved to %v; the test needs it to stay", topo.CoordOf(st.At[q]))
	}
	spy.views = spy.views[:0]
	err := net.StepOnce(alg)
	sawView := false
	for _, v := range spy.views {
		if v.Source == st.Src[q] && v.Arrived == grid.NoDir { // p shares the source but has hopped
			sawView = true
			if v.Profitable != nw {
				t.Fatalf("step 2 Schedule shows %v for the exchanged packet that stayed, want %v", v.Profitable, nw)
			}
		}
	}
	if !sawView {
		t.Fatal("step 2 Schedule never showed the packet that stayed")
	}
	if err == nil || !strings.Contains(err.Error(), "non-minimal") {
		t.Fatalf("want the post-exchange minimality error at step 2, got %v", err)
	}
}
