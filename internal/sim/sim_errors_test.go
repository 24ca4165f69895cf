package sim

import (
	"strings"
	"testing"

	"meshroute/internal/grid"
)

type badIndexAlg struct{ greedyXY }

func (badIndexAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	return [grid.NumDirs]int{99, -1, -1, -1}
}

func TestOutOfRangeScheduleRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(badIndexAlg{}); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

type offMeshAlg struct{ greedyXY }

func (offMeshAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	// Schedule on whatever outlink does NOT exist.
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if _, ok := net.Topo.Neighbor(n.ID, d); !ok {
			sched[d] = 0
			return sched
		}
	}
	return sched
}

func TestMissingOutlinkRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	// Corner node: two missing outlinks.
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(offMeshAlg{}); err == nil || !strings.Contains(err.Error(), "missing outlink") {
		t.Fatalf("want missing-outlink error, got %v", err)
	}
}

func TestExchangeBreakingMinimalityRejected(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 0)))
	net.MustPlace(a)
	net.SetExchange(func(n *Network, step int, moves []Move) {
		// Retarget the moving packet BEHIND itself: the scheduled
		// eastward move becomes non-minimal.
		n.P.Dst[a] = topo.ID(grid.XY(0, 3))
	})
	if err := net.StepOnce(greedyXY{}); err == nil || !strings.Contains(err.Error(), "non-minimal") {
		t.Fatalf("want exchange-minimality error, got %v", err)
	}
}

func TestPlaceAfterRunRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(greedyXY{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Place(net.NewPacket(1, 8)); err == nil {
		t.Fatal("Place after run start must fail")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil topo", Config{K: 1}, "nil topology"},
		{"K=0", Config{Topo: grid.NewSquareMesh(4), K: 0}, "queue capacity"},
		{"bad queue model", Config{Topo: grid.NewSquareMesh(4), K: 1, Queues: QueueModel(9)}, "queue model"},
		{"negative stray", Config{Topo: grid.NewSquareMesh(4), K: 1, MaxStray: -1}, "MaxStray"},
		{"negative watchdog", Config{Topo: grid.NewSquareMesh(4), K: 1, Watchdog: -5}, "watchdog"},
	}
	for _, c := range cases {
		net, err := New(c.cfg)
		if err == nil || net != nil {
			t.Fatalf("%s: want error, got net=%v err=%v", c.name, net, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with K=0 must panic")
		}
	}()
	MustNew(Config{Topo: grid.NewSquareMesh(4), K: 0})
}

// TestStaleProfIsInvariantError corrupts the cached profitable set of a
// resident packet by hand: the checker recomputes every resident's set from
// At and Dst each step, so the stale entry is an error that names the
// packet and the step rather than a silently misrouted packet.
func TestStaleProfIsInvariantError(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	// Two eastbound packets share a node; greedyXY sends the first and the
	// second stays, so nothing rewrites its Prof entry during the step.
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 0)))
	b := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(6, 0)))
	net.MustPlace(a)
	net.MustPlace(b)
	if want := topo.Profitable(net.P.At[b], net.P.Dst[b]); net.P.Prof[b] != want {
		t.Fatalf("placement cached %v for packet %d, want %v", net.P.Prof[b], b.ID(), want)
	}
	net.P.Prof[b] = net.P.Prof[b].Set(grid.North)
	err := net.StepOnce(greedyXY{})
	if err == nil || !strings.Contains(err.Error(), "invariant") ||
		!strings.Contains(err.Error(), "packet 1 ") || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("want an invariant error naming packet 1 and step 1, got %v", err)
	}
}
