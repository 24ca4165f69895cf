package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"meshroute/internal/grid"
)

// Property: under the greedy test algorithm, conservation holds at every
// step — packets are never duplicated or lost, and every delivered packet
// is exactly at its destination.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		const n = 6
		net := MustNew(Config{
			Topo:            grid.NewSquareMesh(n),
			K:               3,
			Queues:          CentralQueue,
			RequireMinimal:  true,
			CheckInvariants: true,
		})
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n * n)
		for s, d := range perm {
			net.MustPlace(net.NewPacket(grid.NodeID(s), grid.NodeID(d)))
		}
		for step := 0; step < 50 && !net.Done(); step++ {
			if err := net.StepOnce(greedyXY{}); err != nil {
				return false
			}
			inNet := 0
			for _, id := range net.Occupied() {
				inNet += net.Node(id).Len()
			}
			if inNet+net.DeliveredCount() != net.TotalPackets() {
				return false
			}
		}
		for _, p := range net.Packets() {
			if p.Delivered() && p.At != p.Dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: on a torus, greedy routing of any single packet takes exactly
// the torus distance.
func TestQuickTorusSinglePacket(t *testing.T) {
	tr := grid.NewSquareTorus(9)
	f := func(sRaw, dRaw uint16) bool {
		s := grid.NodeID(int(sRaw) % tr.N())
		d := grid.NodeID(int(dRaw) % tr.N())
		net := MustNew(Config{Topo: tr, K: 2, Queues: CentralQueue, RequireMinimal: true, CheckInvariants: true})
		p := net.NewPacket(s, d)
		net.MustPlace(p)
		steps, err := net.Run(nil, greedyXY{}, 100, nil)
		if err != nil {
			return false
		}
		st := &net.P
		return st.Delivered(p) && steps == tr.Dist(s, d) && int(st.Hops[p]) == tr.Dist(s, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// At is maintained through the whole lifecycle.
func TestPacketAtTracking(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(6), K: 2, Queues: CentralQueue, RequireMinimal: true})
	topo := net.Topo
	p := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(3, 0)))
	net.MustPlace(p)
	st := &net.P
	if st.At[p] != st.Src[p] {
		t.Fatal("At != Src after placement")
	}
	for i := 1; i <= 3; i++ {
		if err := net.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
		want := topo.ID(grid.XY(i, 0))
		if st.At[p] != want {
			t.Fatalf("step %d: At = %v, want %v", i, topo.CoordOf(st.At[p]), topo.CoordOf(want))
		}
	}
	if !st.Delivered(p) || st.At[p] != st.Dst[p] {
		t.Fatal("delivered packet must sit at Dst")
	}
}

// Injection backlog drains in FIFO order regardless of destination.
func TestInjectionFIFO(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(8), K: 1, Queues: CentralQueue, RequireMinimal: true, CheckInvariants: true})
	topo := net.Topo
	src := topo.ID(grid.XY(0, 0))
	var ps []PacketID
	for i := 0; i < 4; i++ {
		p := net.NewPacket(src, topo.ID(grid.XY(7, i)))
		net.QueueInjection(p, 1)
		ps = append(ps, p)
	}
	if _, err := net.Run(nil, greedyXY{}, 500, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	st := &net.P
	for i := 1; i < len(ps); i++ {
		if st.InjectStep[ps[i]] < st.InjectStep[ps[i-1]] {
			t.Fatalf("FIFO violated: %d before %d", st.InjectStep[ps[i]], st.InjectStep[ps[i-1]])
		}
	}
}

// The engine rejects an inqueue policy that overflows a queue.
type overflowAlg struct{ greedyXY }

func (overflowAlg) Accept(net *Network, n *Node, offers []Offer, acc []bool) {
	for i := range acc {
		acc[i] = true // ignore capacity
	}
}

func TestOverflowDetected(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(8), K: 1, Queues: CentralQueue, RequireMinimal: true, CheckInvariants: true})
	topo := net.Topo
	// Three packets converge on (2,2)'s neighborhood; (2,2) itself holds
	// a slow packet so accepted arrivals overflow k=1.
	net.MustPlace(net.NewPacket(topo.ID(grid.XY(2, 2)), topo.ID(grid.XY(5, 2))))
	net.MustPlace(net.NewPacket(topo.ID(grid.XY(1, 2)), topo.ID(grid.XY(5, 2))))
	err := error(nil)
	for i := 0; i < 10 && err == nil; i++ {
		err = net.StepOnce(overflowAlg{})
		if net.Done() {
			return // routed without conflict; nothing to detect
		}
	}
	if err == nil {
		t.Fatal("overflowing Accept must be detected")
	}
}

// Multiple packets with the same destination (many-to-one traffic) are
// legal in the engine even though they are not a permutation.
func TestManyToOneTraffic(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(6), K: 4, Queues: CentralQueue, RequireMinimal: true, CheckInvariants: true})
	topo := net.Topo
	dst := topo.ID(grid.XY(5, 5))
	for i := 0; i < 5; i++ {
		net.MustPlace(net.NewPacket(topo.ID(grid.XY(i, 0)), dst))
	}
	if _, err := net.Run(nil, greedyXY{}, 200, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if net.DeliveredCount() != 5 {
		t.Fatalf("delivered %d/5", net.DeliveredCount())
	}
}
