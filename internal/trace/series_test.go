package trace

import (
	"bytes"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
)

// TestSeriesMatchesLiveSink records the same run through both a trace
// Recorder and a live obs sink and checks that the movement-derived
// fields of the aggregated series agree exactly with the live samples.
func TestSeriesMatchesLiveSink(t *testing.T) {
	const n, k = 8, 2
	topo := grid.NewSquareMesh(n)
	net := sim.MustNew(sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			net.MustPlace(net.NewPacket(topo.ID(grid.XY(x, y)), topo.ID(grid.XY(n-1-x, n-1-y))))
		}
	}
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Attach(net)
	live := &obs.Memory{}
	net.SetMetricsSink(live)

	if _, err := net.Run(nil, dex.NewAdapter(routers.DimOrderFIFO{}), 10000, nil); err != nil {
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
	series := Series(steps)
	if len(series) != len(live.Steps) {
		t.Fatalf("series has %d samples, live sink %d", len(series), len(live.Steps))
	}
	for i, s := range series {
		l := live.Steps[i]
		if s.Step != l.Step || s.Moves != l.Moves || s.Delivered != l.Delivered ||
			s.DeliveredTotal != l.DeliveredTotal || s.LinkUse != l.LinkUse {
			t.Fatalf("step %d: series %+v disagrees with live sample %+v", s.Step, s, l)
		}
		if s.InFlight > l.InFlight {
			t.Fatalf("step %d: trace-derived InFlight %d exceeds live %d (must be a lower bound)",
				s.Step, s.InFlight, l.InFlight)
		}
	}
	final := series[len(series)-1]
	if final.InFlight != 0 || final.DeliveredTotal != net.TotalPackets() {
		t.Fatalf("final aggregated sample %+v does not show a drained network", final)
	}
}
