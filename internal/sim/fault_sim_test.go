package sim

import (
	"errors"
	"reflect"
	"testing"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// faultNet builds a central-queue test network with a fault schedule.
func faultNet(t *testing.T, n, k int, minimal bool, sched *fault.Schedule, watchdog int) *Network {
	t.Helper()
	net, err := New(Config{
		Topo:            grid.NewSquareMesh(n),
		K:               k,
		Queues:          CentralQueue,
		RequireMinimal:  minimal,
		CheckInvariants: true,
		Faults:          sched,
		Watchdog:        watchdog,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestTransientLinkFaultDelaysDelivery(t *testing.T) {
	// One packet straight east; its second hop's link fails for steps 2-4.
	topo := grid.NewSquareMesh(8)
	mid := topo.ID(grid.XY(1, 3))
	sched := (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 2, Kind: fault.LinkDown, Node: mid, Dir: grid.East},
		{Step: 5, Kind: fault.LinkUp, Node: mid, Dir: grid.East},
	}}).Finalize()
	net := faultNet(t, 8, 2, true, sched, 0)
	p := net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(5, 3)))
	net.MustPlace(p)
	steps, err := net.Run(nil, greedyXY{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 5 hops + 3 steps wedged at the down link.
	if steps != 8 {
		t.Fatalf("steps = %d, want 8 (5 hops + 3 down steps)", steps)
	}
	if net.Metrics.FaultDrops != 3 {
		t.Fatalf("FaultDrops = %d, want 3", net.Metrics.FaultDrops)
	}
	if !net.P.Delivered(p) {
		t.Fatal("packet must recover and deliver")
	}
}

func TestNodeStallFreezesNode(t *testing.T) {
	// Stall the node one hop ahead: the packet cannot enter it (nor be
	// delivered into it) until the wake event.
	topo := grid.NewSquareMesh(8)
	ahead := topo.ID(grid.XY(1, 3))
	sched := (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 1, Kind: fault.NodeStall, Node: ahead, Dir: grid.NoDir},
		{Step: 4, Kind: fault.NodeWake, Node: ahead, Dir: grid.NoDir},
	}}).Finalize()
	net := faultNet(t, 8, 2, true, sched, 0)
	p := net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(3, 3)))
	net.MustPlace(p)
	steps, err := net.Run(nil, greedyXY{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 6 {
		t.Fatalf("steps = %d, want 6 (3 hops + 3 stalled steps)", steps)
	}
	if net.Metrics.FaultDrops != 3 {
		t.Fatalf("FaultDrops = %d, want 3", net.Metrics.FaultDrops)
	}
}

func TestPermanentFaultUnreachable(t *testing.T) {
	// The packet's only profitable outlink fails permanently: the engine
	// must raise the typed unreachability error under RequireMinimal.
	topo := grid.NewSquareMesh(8)
	at := topo.ID(grid.XY(2, 3))
	sched := (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 3, Kind: fault.LinkDown, Node: at, Dir: grid.East, Permanent: true},
		{Step: 3, Kind: fault.LinkDown, Node: topo.ID(grid.XY(3, 3)), Dir: grid.West, Permanent: true},
	}}).Finalize()
	net := faultNet(t, 8, 2, true, sched, 0)
	p := net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(6, 3)))
	net.MustPlace(p)
	_, err := net.Run(nil, greedyXY{}, 100, nil)
	var ue *UnreachableError
	if !errors.As(err, &ue) {
		t.Fatalf("want UnreachableError, got %v", err)
	}
	if ue.PacketID != p.ID() || ue.At != at {
		t.Fatalf("error names packet %d at %v, want packet %d at %v", ue.PacketID, ue.AtCoord, p.ID(), topo.CoordOf(at))
	}
}

func TestWatchdogAbortsWedgedRun(t *testing.T) {
	// Without RequireMinimal the unreachability check is off; a permanent
	// failure wedges the dimension-order test router forever, and the
	// watchdog must abort with diagnostics instead of burning the budget.
	topo := grid.NewSquareMesh(8)
	at := topo.ID(grid.XY(2, 3))
	sched := (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 2, Kind: fault.LinkDown, Node: at, Dir: grid.East, Permanent: true},
		{Step: 2, Kind: fault.LinkDown, Node: topo.ID(grid.XY(3, 3)), Dir: grid.West, Permanent: true},
	}}).Finalize()
	net := faultNet(t, 8, 2, false, sched, 10)
	p := net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(6, 3)))
	net.MustPlace(p)
	steps, err := net.Run(nil, greedyXY{}, 10000, nil)
	var le *LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("want LivelockError, got %v after %d steps", err, steps)
	}
	if steps >= 100 {
		t.Fatalf("watchdog fired only after %d steps (window 10)", steps)
	}
	if le.Diag.Undelivered != 1 || le.Diag.StalledSteps < 10 {
		t.Fatalf("diagnostics %+v", le.Diag)
	}
	if len(le.Diag.TopQueues) == 0 || le.Diag.TopQueues[0].Node != at {
		t.Fatalf("hottest queue %+v, want node %v", le.Diag.TopQueues, topo.CoordOf(at))
	}
	if _, ok := err.(*LivelockError); !ok {
		t.Fatal("error must be the typed watchdog error")
	}
	_ = p
}

// TestStepLimitErrorCarriesDiagnostics checks that a run stopped at its
// step limit leaves a state whose diagnostics name the undelivered packet,
// its queue and the step the run stopped on.
func TestStepLimitErrorCarriesDiagnostics(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	net.MustPlace(net.NewPacket(topo.ID(grid.XY(0, 3)), topo.ID(grid.XY(6, 3))))
	if _, err := net.Run(nil, greedyXY{}, 2, nil); err != nil {
		t.Fatal(err)
	}
	if net.Done() {
		t.Fatal("packet delivered inside a 2-step limit")
	}
	d := net.CollectDiagnostics()
	if d.Undelivered != 1 || len(d.TopQueues) != 1 {
		t.Fatalf("diagnostics %+v", d)
	}
	if d.Step != 2 {
		t.Fatalf("Diag.Step = %d, want 2", d.Step)
	}
}

// runWithFaultSink runs a fixed workload under a generated fault schedule
// and returns the recorded fault events.
func runWithFaultSink(t *testing.T, seed int64) []obs.Event {
	t.Helper()
	topo := grid.NewSquareMesh(8)
	sched, err := fault.Generate(topo, fault.Config{
		Seed: seed, Horizon: 60, LinkFailures: 6, MeanDownSteps: 8, NodeStalls: 2, MeanStallSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := faultNet(t, 8, 3, true, sched, 0)
	for x := 0; x < 8; x++ {
		net.MustPlace(net.NewPacket(topo.ID(grid.XY(x, 0)), topo.ID(grid.XY(7-x, 7))))
	}
	mem := &obs.Records{}
	net.SetMetricsSink(mem)
	if _, err := net.Run(nil, greedyXY{}, 500, nil); err != nil {
		t.Fatal(err)
	}
	return mem.Events
}

func TestFaultEventStreamDeterministic(t *testing.T) {
	a := runWithFaultSink(t, 42)
	b := runWithFaultSink(t, 42)
	if len(a) == 0 {
		t.Fatal("no fault events recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault event streams diverged across identical runs:\n%v\nvs\n%v", a, b)
	}
	c := runWithFaultSink(t, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different fault seeds produced identical event streams")
	}
}

func TestInvariantCheckerAccountsForInjections(t *testing.T) {
	// Injections into a stalled node exercise the backlog conservation
	// counter; the checker must stay silent for a conforming router.
	topo := grid.NewSquareMesh(6)
	sched := (&fault.Schedule{N: topo.N(), Events: []fault.Event{
		{Step: 2, Kind: fault.NodeStall, Node: topo.ID(grid.XY(2, 2)), Dir: grid.NoDir},
		{Step: 6, Kind: fault.NodeWake, Node: topo.ID(grid.XY(2, 2)), Dir: grid.NoDir},
	}}).Finalize()
	net := faultNet(t, 6, 1, true, sched, 0)
	src := TimedSource{}
	for i := 0; i < 6; i++ {
		src[i+1] = []Injection{{Src: topo.ID(grid.XY(2, 2)), Dst: topo.ID(grid.XY(5, 5))}}
	}
	if err := net.AttachSource(src, AdmitRetry); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(nil, greedyXY{}, 500, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("all injected packets must deliver after the wake")
	}
}
