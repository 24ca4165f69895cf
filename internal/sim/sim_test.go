package sim

import (
	"slices"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// greedyXY is a minimal test algorithm: dimension order (row first), FIFO
// outqueue, accept-if-room inqueue. It exercises every engine code path
// without depending on the routers package.
type greedyXY struct{}

func (greedyXY) Name() string                   { return "test-greedy-xy" }
func (greedyXY) InitNode(net *Network, n *Node) {}
func (greedyXY) Update(net *Network, n *Node)   {}

func (greedyXY) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	taken := [grid.NumDirs]bool{}
	for i, p := range net.PacketsOf(n) {
		prof := net.Topo.Profitable(n.ID, net.P.Dst[p])
		// Dimension order: horizontal first.
		var want grid.Dir = grid.NoDir
		switch {
		case prof.Has(grid.East):
			want = grid.East
		case prof.Has(grid.West):
			want = grid.West
		case prof.Has(grid.North):
			want = grid.North
		case prof.Has(grid.South):
			want = grid.South
		}
		if want != grid.NoDir && !taken[want] {
			sched[want] = i
			taken[want] = true
		}
	}
	return sched
}

func (greedyXY) Accept(net *Network, n *Node, offers []Offer, acc []bool) {
	free := net.K - net.QueueLen(n, 0)
	for i, o := range offers {
		if net.P.Dst[o.P] == n.ID {
			acc[i] = true // delivery consumes no space
			continue
		}
		if free > 0 {
			acc[i] = true
			free--
		}
	}
}

func newTestNet(t *testing.T, n, k int) *Network {
	t.Helper()
	return MustNew(Config{
		Topo:            grid.NewSquareMesh(n),
		K:               k,
		Queues:          CentralQueue,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
}

func TestSinglePacketStraightLine(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(0, 3)), m.ID(grid.XY(5, 3)))
	net.MustPlace(p)
	steps, err := net.Run(nil, greedyXY{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 {
		t.Fatalf("steps = %d, want 5 (distance)", steps)
	}
	if !net.P.Delivered(p) || net.P.DeliverStep[p] != 5 || net.P.Hops[p] != 5 {
		t.Fatalf("packet state %+v", net.PacketSnapshot(p))
	}
	if !net.Done() {
		t.Fatal("network must be done")
	}
}

func TestSinglePacketTurns(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(1, 1)), m.ID(grid.XY(6, 7)))
	net.MustPlace(p)
	steps, err := net.Run(nil, greedyXY{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Dist(net.P.Src[p], net.P.Dst[p])
	if steps != want {
		t.Fatalf("steps = %d, want %d", steps, want)
	}
}

func TestSelfDeliveredAtPlacement(t *testing.T) {
	net := newTestNet(t, 4, 1)
	p := net.NewPacket(5, 5)
	net.MustPlace(p)
	if !net.P.Delivered(p) || net.P.DeliverStep[p] != 0 {
		t.Fatalf("fixed-point packet must deliver at placement: %+v", net.PacketSnapshot(p))
	}
	if !net.Done() {
		t.Fatal("done expected")
	}
	steps, err := net.Run(nil, greedyXY{}, 10, nil)
	if err != nil || steps != 0 {
		t.Fatalf("run on done network: steps=%d err=%v", steps, err)
	}
}

// A packet placed at a full central queue does not enter it: it waits in
// its source's backlog and enters once the queue has room.
func TestPlacementCapacityEnforced(t *testing.T) {
	net := newTestNet(t, 4, 1)
	net.MustPlace(net.NewPacket(0, 5))
	p := net.NewPacket(0, 6)
	if err := net.Place(p); err != nil {
		t.Fatal(err)
	}
	if got := net.Node(0).Len(); got != 1 || net.backlogTotal != 1 || net.P.slot[p] != -1 {
		t.Fatalf("k=1 queue holds %d packets and %d wait; want 1 and 1, the second placed packet waiting", got, net.backlogTotal)
	}
	if _, err := net.Run(nil, greedyXY{}, 20, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() || net.P.InjectStep[p] < 1 {
		t.Fatalf("done=%v, second packet entered at step %d; want done and an entry after step 0", net.Done(), net.P.InjectStep[p])
	}
}

func TestFullReversalPermutationDelivers(t *testing.T) {
	const n = 8
	net := newTestNet(t, n, 4)
	m := net.Topo
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			src := m.ID(grid.XY(x, y))
			dst := m.ID(grid.XY(n-1-x, n-1-y))
			net.MustPlace(net.NewPacket(src, dst))
		}
	}
	steps, err := net.Run(nil, greedyXY{}, 10*n*n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.DeliveredCount() != n*n {
		t.Fatalf("delivered %d/%d", net.DeliveredCount(), n*n)
	}
	if steps < 2*n-2 {
		t.Fatalf("reversal cannot beat diameter: %d < %d", steps, 2*n-2)
	}
	if net.Metrics.MaxQueueLen > 4 {
		t.Fatalf("capacity violated: %d", net.Metrics.MaxQueueLen)
	}
}

// Every packet in a permutation must take a minimal path: hops == distance.
func TestMinimalPathsHopsEqualDistance(t *testing.T) {
	const n = 6
	net := newTestNet(t, n, 3)
	m := net.Topo
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			src := m.ID(grid.XY(x, y))
			dst := m.ID(grid.XY((x+3)%n, (y+2)%n))
			net.MustPlace(net.NewPacket(src, dst))
		}
	}
	if _, err := net.Run(nil, greedyXY{}, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	for _, p := range net.Packets() {
		if p.Hops != m.Dist(p.Src, p.Dst) {
			t.Fatalf("packet %d hops %d != dist %d", p.ID, p.Hops, m.Dist(p.Src, p.Dst))
		}
	}
}

func TestExchangeHookSwapsDestinations(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	a := net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(4, 4)))
	b := net.NewPacket(m.ID(grid.XY(1, 1)), m.ID(grid.XY(5, 5)))
	net.MustPlace(a)
	net.MustPlace(b)
	swapped := false
	net.SetExchange(func(n *Network, step int, moves []Move) {
		if step == 1 && !swapped {
			n.ExchangeDst(a, b)
			swapped = true
		}
	})
	if _, err := net.Run(nil, greedyXY{}, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if m.CoordOf(net.P.Dst[a]) != (grid.XY(5, 5)) || m.CoordOf(net.P.Dst[b]) != (grid.XY(4, 4)) {
		t.Fatal("exchange did not persist")
	}
	// Both packets start on the shared diagonal corridor; after the swap
	// each must still arrive at its (new) destination minimally.
	for _, p := range []PacketID{a, b} {
		if !net.P.Delivered(p) {
			t.Fatalf("packet %d undelivered", p.ID())
		}
	}
}

// TestRunPartialStopsWithoutError checks that a run cut short by its
// budget is not an error: Run returns the steps it executed and Done
// reports the undelivered packet. A second call carries on to delivery and
// counts only its own steps.
func TestRunPartialStopsWithoutError(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 3)), m.ID(grid.XY(6, 3))))
	steps, err := net.Run(nil, greedyXY{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 || net.Done() {
		t.Fatalf("budget-bound run: steps=%d done=%v", steps, net.Done())
	}
	steps, err = net.Run(nil, greedyXY{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 4 || !net.Done() {
		t.Fatalf("second call: steps=%d done=%v, want 4 and true", steps, net.Done())
	}
}

// A non-minimal schedule must be rejected when RequireMinimal is set.
type badAlg struct{ greedyXY }

func (badAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	p := net.PacketsOf(n)[0]
	prof := net.Topo.Profitable(n.ID, net.P.Dst[p])
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if !prof.Has(d) {
			if _, ok := net.Topo.Neighbor(n.ID, d); ok {
				sched[d] = 0
				return sched
			}
		}
	}
	return sched
}

func TestRequireMinimalRejectsBadMove(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(3, 3)), m.ID(grid.XY(5, 5))))
	if err := net.StepOnce(badAlg{}); err == nil {
		t.Fatal("non-minimal move must be rejected")
	}
}

// Scheduling one packet on two outlinks must be rejected.
type doubleAlg struct{ greedyXY }

func (doubleAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	return [grid.NumDirs]int{0, 0, -1, -1} // same packet North and East
}

func TestDoubleScheduleRejected(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(3, 3)), m.ID(grid.XY(5, 5))))
	if err := net.StepOnce(doubleAlg{}); err == nil {
		t.Fatal("double-scheduled packet must be rejected")
	}
}

func TestInjectionWaitsForRoom(t *testing.T) {
	net := newTestNet(t, 8, 1)
	m := net.Topo
	src := m.ID(grid.XY(0, 0))
	// Two packets share a source whose k=1 queue holds one: the second
	// waits in the backlog.
	p1 := net.NewPacket(src, m.ID(grid.XY(3, 0)))
	p2 := net.NewPacket(src, m.ID(grid.XY(0, 3)))
	net.MustPlace(p1)
	net.MustPlace(p2)
	if _, err := net.Run(nil, greedyXY{}, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if !net.P.Delivered(p1) || !net.P.Delivered(p2) {
		t.Fatal("both injected packets must deliver")
	}
	if net.P.InjectStep[p2] <= net.P.InjectStep[p1] {
		t.Fatalf("k=1: second injection must wait (inject steps %d, %d)", net.P.InjectStep[p1], net.P.InjectStep[p2])
	}
}

func TestMetricsBasics(t *testing.T) {
	net := newTestNet(t, 8, 4)
	mem := &obs.Records{}
	net.SetMetricsSink(mem)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(3, 0))))
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 1)), m.ID(grid.XY(0, 5))))
	if _, err := net.Run(nil, greedyXY{}, 100, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if net.Metrics.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", net.Metrics.Makespan)
	}
	if net.Metrics.TotalHops != 7 {
		t.Fatalf("hops = %d, want 7", net.Metrics.TotalHops)
	}
	if got := net.AvgDelay(); got != 3.5 {
		t.Fatalf("avg delay = %v, want 3.5", got)
	}
	// The per-step history is the sink's sample stream: one delivery at
	// each of steps 3 and 4.
	var got []int
	for _, s := range mem.Steps {
		got = append(got, s.Delivered)
	}
	if want := []int{0, 0, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("per-step deliveries %v, want %v", got, want)
	}
}

func TestPerInlinkQueueTags(t *testing.T) {
	net := MustNew(Config{
		Topo:            grid.NewSquareMesh(8),
		K:               1,
		Queues:          PerInlinkQueues,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
	m := net.Topo
	p := net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(2, 0)))
	net.MustPlace(p)
	if net.P.QTag[p] != OriginTag {
		t.Fatalf("origin tag = %d", net.P.QTag[p])
	}
	if err := net.StepOnce(greedyXY{}); err != nil {
		t.Fatal(err)
	}
	// Travelling East, the packet arrives in the West queue of (1,0).
	if net.P.QTag[p] != uint8(grid.West) {
		t.Fatalf("after eastward hop, tag = %d, want West", net.P.QTag[p])
	}
	node := net.Node(m.ID(grid.XY(1, 0)))
	if net.QueueLen(node, uint8(grid.West)) != 1 || net.NetworkLen(node) != 1 {
		t.Fatal("queue accounting wrong")
	}
}

func TestOccupiedTracking(t *testing.T) {
	net := newTestNet(t, 8, 2)
	m := net.Topo
	net.MustPlace(net.NewPacket(m.ID(grid.XY(0, 0)), m.ID(grid.XY(1, 0))))
	if len(net.Occupied()) != 1 {
		t.Fatal("one occupied node expected")
	}
	if _, err := net.Run(nil, greedyXY{}, 10, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if len(net.Occupied()) != 0 {
		t.Fatal("no occupied nodes after delivery")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int {
		const n = 8
		net := newTestNet(t, n, 4)
		m := net.Topo
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				// Transpose-and-shift: a true permutation.
				net.MustPlace(net.NewPacket(m.ID(grid.XY(x, y)), m.ID(grid.XY(y, (x+1)%n))))
			}
		}
		if _, err := net.Run(nil, greedyXY{}, 10000, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
		out := make([]int, 0, n*n)
		for _, p := range net.Packets() {
			out = append(out, p.DeliverStep)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery at packet %d: %d vs %d", i, a[i], b[i])
		}
	}
}
