package trace

import (
	"bytes"
	"strings"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func recordRun(t *testing.T, n int) ([]StepTrace, *sim.Network) {
	t.Helper()
	topo := grid.NewSquareMesh(n)
	net := sim.MustNew(routers.Thm15Config(topo, 2))
	perm := workload.Random(topo, 9)
	if err := perm.Place(net); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(net)
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 100*n, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	steps, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return steps, net
}

func TestRecorderRoundTrip(t *testing.T) {
	steps, net := recordRun(t, 8)
	if len(steps) == 0 {
		t.Fatal("no steps recorded")
	}
	a := Analyze(steps)
	// Fixed points deliver at placement (step 0) and never appear in the
	// trace; everything else must.
	routed := 0
	for _, p := range net.Packets() {
		if p.DeliverStep >= 1 {
			routed++
		}
	}
	if a.Delivered != routed {
		t.Fatalf("trace delivered %d, network routed %d", a.Delivered, routed)
	}
	if a.TotalMoves != net.Metrics.TotalHops {
		t.Fatalf("trace moves %d, network hops %d", a.TotalMoves, net.Metrics.TotalHops)
	}
	if a.Steps != net.Metrics.Makespan {
		t.Fatalf("trace steps %d, makespan %d", a.Steps, net.Metrics.Makespan)
	}
}

func TestAnalysisLinkConsistency(t *testing.T) {
	steps, _ := recordRun(t, 8)
	a := Analyze(steps)
	sumLinks := 0
	for _, n := range a.LinkUse {
		sumLinks += n
	}
	if sumLinks != a.TotalMoves {
		t.Fatalf("link sum %d != total moves %d", sumLinks, a.TotalMoves)
	}
	l, n := a.HottestLink()
	if n == 0 || a.LinkUse[l] != n {
		t.Fatalf("hottest link inconsistent: %v %d", l, n)
	}
	// Delivery curve sums to the total.
	sumDel := 0
	for _, c := range a.DeliveredAt {
		sumDel += c
	}
	if sumDel != a.Delivered {
		t.Fatalf("delivery curve sum %d != %d", sumDel, a.Delivered)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestEmptyTrace(t *testing.T) {
	steps, err := Read(strings.NewReader(""))
	if err != nil || len(steps) != 0 {
		t.Fatalf("empty trace: %v %d", err, len(steps))
	}
	a := Analyze(steps)
	if a.TotalMoves != 0 || a.Steps != 0 {
		t.Fatal("empty analysis must be zero")
	}
	if _, n := a.HottestLink(); n != 0 {
		t.Fatal("empty trace has no hottest link")
	}
}

// The trace of the constructed permutation shows the corner concentration:
// the hottest links carry far more than the average.
func TestTraceShowsCornerConcentration(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	net := sim.MustNew(routers.Thm15Config(topo, 1))
	// All packets from the 3×3 corner heading out.
	idx := 0
	for y := 0; y < 2; y++ {
		for x := 0; x < 4; x++ {
			net.MustPlace(net.NewPacket(topo.ID(grid.XY(x, y)), topo.ID(grid.XY(7, idx))))
			idx++
		}
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(net)
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 2000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	steps, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(steps)
	_, hot := a.HottestLink()
	if hot < 3 {
		t.Fatalf("corner flood should concentrate traffic, hottest link only %d", hot)
	}
}
