package sim

import (
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// reversalNet builds an n×n central-queue mesh loaded with the reversal
// permutation (every node holds one packet to the opposite corner).
func reversalNet(n, k int) *Network {
	net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: k, Queues: CentralQueue, RequireMinimal: true})
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, y)), net.Topo.ID(grid.XY(n-1-x, n-1-y))))
		}
	}
	return net
}

func TestMetricsSinkSamples(t *testing.T) {
	net := reversalNet(8, 4)
	m := &obs.Records{}
	net.SetMetricsSink(m)
	if _, err := net.Run(nil, greedyXY{}, 10000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if len(m.Steps) != net.Step() {
		t.Fatalf("recorded %d samples over %d steps", len(m.Steps), net.Step())
	}

	sumDelivered, sumMoves := 0, 0
	var sumLink int
	for i, s := range m.Steps {
		if s.Step != i+1 {
			t.Fatalf("sample %d has step %d", i, s.Step)
		}
		sumDelivered += s.Delivered
		sumMoves += s.Moves
		for _, c := range s.LinkUse {
			sumLink += c
		}
		if s.QueueHist.Total() > s.InFlight {
			t.Fatalf("step %d: %d queues counted but only %d packets in flight", s.Step, s.QueueHist.Total(), s.InFlight)
		}
	}
	if sumDelivered != net.TotalPackets() {
		t.Errorf("sum of per-step deliveries = %d, want %d", sumDelivered, net.TotalPackets())
	}
	if sumMoves != net.Metrics.TotalHops {
		t.Errorf("sum of per-step moves = %d, want TotalHops = %d", sumMoves, net.Metrics.TotalHops)
	}
	if sumLink != net.Metrics.TotalHops {
		t.Errorf("sum of per-direction link use = %d, want TotalHops = %d", sumLink, net.Metrics.TotalHops)
	}
	last := m.Steps[len(m.Steps)-1]
	if last.InFlight != 0 || last.DeliveredTotal != net.TotalPackets() {
		t.Errorf("final sample %+v does not show a drained network", last)
	}
	if peak := peakQueue(m); peak != net.Metrics.MaxQueueLen {
		t.Errorf("peak sampled queue = %d, Metrics.MaxQueueLen = %d", peak, net.Metrics.MaxQueueLen)
	}
	for i := 1; i < len(m.Steps); i++ {
		if m.Steps[i].DeliveredTotal < m.Steps[i-1].DeliveredTotal {
			t.Fatalf("delivery curve decreases at step %d", i+1)
		}
	}
}

// peakQueue returns the largest per-step MaxQueue recorded.
func peakQueue(r *obs.Records) int {
	peak := 0
	for _, s := range r.Steps {
		peak = max(peak, s.MaxQueue)
	}
	return peak
}

func TestMetricsSinkPerInlinkQueues(t *testing.T) {
	const n = 8
	net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 2, Queues: PerInlinkQueues})
	for x := 0; x < n; x++ {
		net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, 0)), net.Topo.ID(grid.XY(x, n-1))))
	}
	m := &obs.Records{}
	net.SetMetricsSink(m)
	if _, err := net.Run(nil, greedyXY{}, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	// Origin-buffer packets count as in flight but never enter the
	// queue histogram or MaxQueue (the origin buffer is unbounded).
	if m.Steps[0].InFlight != n {
		t.Errorf("step 1 InFlight = %d, want %d", m.Steps[0].InFlight, n)
	}
	if peak := peakQueue(m); peak > net.K {
		t.Errorf("sink saw queue occupancy %d over capacity %d", peak, net.K)
	}
}

// TestSinkSamplingZeroAlloc proves the sampling path allocates nothing:
// an identical deterministic run with a preallocated Records sink must
// perform exactly as many allocations as the run with a nil sink (the nil
// path does strictly less work — it skips emitStepSample entirely).
func TestSinkSamplingZeroAlloc(t *testing.T) {
	const n, k = 8, 4
	run := func(sink obs.Sink) {
		net := reversalNet(n, k)
		if sink != nil {
			net.SetMetricsSink(sink)
		}
		if _, err := net.Run(nil, greedyXY{}, 10000, nil); err != nil {
			t.Fatal(err)
		}
		if !net.Done() {
			t.Fatal("packets undelivered at the step budget")
		}
	}
	m := &obs.Records{Steps: make([]obs.StepSample, 0, 4096)}
	nilAllocs := testing.AllocsPerRun(5, func() { run(nil) })
	sinkAllocs := testing.AllocsPerRun(5, func() {
		m.Steps = m.Steps[:0]
		run(m)
	})
	if sinkAllocs != nilAllocs {
		t.Errorf("sampling allocates: %.1f allocs/run with preallocated sink vs %.1f with nil sink",
			sinkAllocs, nilAllocs)
	}
}
