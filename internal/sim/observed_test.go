package sim

import (
	"runtime"
	"testing"
	"unsafe"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// TestObservedStepAllocs pins what the observed run costs the allocator:
// after warmup, a step with a counting sink installed allocates nothing,
// exactly like the nil-sink step of TestSteadyStateStepAllocs. (The sample
// is a stack value, the occupancy summary part of the part (e) scan, and
// obs.Counters a handful of atomics.)
func TestObservedStepAllocs(t *testing.T) {
	net := buildReversal(t, 16, 2)
	var counters obs.Counters
	net.SetMetricsSink(&counters)
	alg := greedyXY{}
	for i := 0; i < 5; i++ { // warm scratch buffers
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
	}
	requireZeroAllocSteps(t, 20, func() error { return net.StepOnce(alg) })
	if got := counters.Totals().Steps; got != 26 { // 5 warm + the helper's 1 + 20
		t.Errorf("sink saw %d steps, want 26", got)
	}
}

// rescanSink checks every sample it receives against a fresh scan of the
// occupied list, written the way emitStepSample used to compute it: the
// reference for the summary the engine now takes from the part (e) scan.
type rescanSink struct {
	t   *testing.T
	net *Network
	n   int
}

func (r *rescanSink) Span(obs.Span)      {}
func (r *rescanSink) Event(obs.Event)    {}
func (r *rescanSink) Run(obs.RunSummary) {}

func (r *rescanSink) Step(s obs.StepSample) {
	r.n++
	net := r.net
	var nodes, inFlight, maxQueue int
	var hist obs.QueueHist
	for _, id := range net.occ {
		node := &net.nodes[id]
		if node.qLen == 0 {
			continue
		}
		nodes++
		inFlight += node.Len()
		for tag := uint8(0); tag < numTags; tag++ {
			if tag == OriginTag && net.Queues == PerInlinkQueues {
				continue // the unbounded origin buffer is not a queue of the model
			}
			if c := net.QueueLen(node, tag); c > 0 {
				hist.Add(c)
				maxQueue = max(maxQueue, c)
			}
		}
	}
	if s.OccupiedNodes != nodes || s.InFlight != inFlight || s.MaxQueue != maxQueue || s.QueueHist != hist {
		r.t.Fatalf("step %d: sample reports on=%d if=%d mq=%d qh=%v, a rescan of occ gives on=%d if=%d mq=%d qh=%v",
			s.Step, s.OccupiedNodes, s.InFlight, s.MaxQueue, s.QueueHist, nodes, inFlight, maxQueue, hist)
	}
	if resident := net.total - net.delivered - net.backlogTotal; inFlight != resident {
		r.t.Fatalf("step %d: %d packets in queues, conservation says %d resident", s.Step, inFlight, resident)
	}
}

// TestStepSampleMatchesRescan runs a central-queue, a per-inlink and a
// faulted instance and requires the fused occupancy summary to equal a
// fresh scan of occ at every step.
func TestStepSampleMatchesRescan(t *testing.T) {
	const n = 10
	topo := grid.NewSquareMesh(n)
	sched, err := fault.Generate(topo, fault.Config{
		Seed: 7, Horizon: 60, LinkFailures: 10, MeanDownSteps: 6, NodeStalls: 4, MeanStallSteps: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"central", Config{Topo: topo, K: 2, Queues: CentralQueue, RequireMinimal: true}},
		// Every packet starts in an origin buffer, which InFlight counts
		// and the histogram and MaxQueue must not.
		{"per-inlink", Config{Topo: topo, K: 1, Queues: PerInlinkQueues, RequireMinimal: true}},
		{"faulted", Config{Topo: topo, K: 3, Queues: CentralQueue, RequireMinimal: true, Faults: sched}},
	}
	for _, tc := range cases {
		net := MustNew(tc.cfg)
		for i := 0; i < n*n; i++ {
			if j := n*n - 1 - i; i != j {
				net.MustPlace(net.NewPacket(grid.NodeID(i), grid.NodeID(j)))
			}
		}
		// Late arrivals through the backlog, so nodes fill and empty.
		src := TimedSource{}
		for i := 0; i < n*n; i += 3 {
			src[2+i%9] = append(src[2+i%9], Injection{Src: grid.NodeID(i), Dst: grid.NodeID((i*7 + 5) % (n * n))})
		}
		if err := net.AttachSource(src, AdmitRetry); err != nil {
			t.Fatal(err)
		}
		sink := &rescanSink{t: t, net: net}
		net.SetMetricsSink(sink)
		if _, err := net.Run(nil, greedyXY{}, 400, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sink.n != net.Step() || sink.n < 20 {
			t.Fatalf("%s: %d samples over %d steps", tc.name, sink.n, net.Step())
		}
	}
}

// TestBacklogAllocatedOnDemand pins that a run whose packets all fit at
// placement never allocates the per-node backlog arrays, and that the
// first streamed injection to come due does.
func TestBacklogAllocatedOnDemand(t *testing.T) {
	net := buildReversal(t, 8, 2)
	if _, err := net.Run(nil, greedyXY{}, 30, nil); err != nil {
		t.Fatal(err)
	}
	if net.backlog != nil || net.inBacklog != nil || net.backlogHead != nil {
		t.Fatal("a static run allocated backlog state")
	}
	net = buildDynamic(t, 8, 2, 20)
	if net.backlog != nil {
		t.Fatal("backlog allocated before any injection came due")
	}
	if _, err := net.Run(nil, greedyXY{}, 30, nil); err != nil {
		t.Fatal(err)
	}
	if len(net.backlog) != 64 || len(net.inBacklog) != 64 || len(net.backlogHead) != 64 {
		t.Fatal("backlog state missing after streamed injections ran")
	}
}

// TestPacketStoreGrowsTogether pins the store's growth policy: every column
// has the same capacity at all times, it doubles, and a reservation makes
// the next n packets free of any growth.
func TestPacketStoreGrowsTogether(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(4), K: 1})
	st := &net.P
	caps := func() [15]int {
		return [15]int{cap(st.Src), cap(st.Dst), cap(st.At), cap(st.Prof), cap(st.State), cap(st.Arrived),
			cap(st.QTag), cap(st.Class), cap(st.Tag), cap(st.ArrivedStep), cap(st.InjectStep),
			cap(st.DeliverStep), cap(st.Hops), cap(st.slot), cap(st.departing)}
	}
	check := func(when string) int {
		t.Helper()
		c := caps()
		for _, v := range c {
			if v != c[0] {
				t.Fatalf("%s: column capacities differ: %v", when, c)
			}
		}
		return c[0]
	}
	grew := 0
	last := check("new network")
	for i := 0; i < 1000; i++ {
		net.NewPacket(0, 1)
		if c := check("while adding"); c != last {
			if c != 2*last {
				t.Fatalf("store grew from %d to %d, want doubling", last, c)
			}
			grew, last = grew+1, c
		}
	}
	if grew != 4 { // 64 → 128 → 256 → 512 → 1024 for 1001 rows
		t.Fatalf("store grew %d times for 1000 packets, want 4", grew)
	}
	net.ReserveInjections(5000)
	reserved := check("after ReserveInjections")
	if reserved != st.Len()+1+5000 {
		t.Fatalf("reserved capacity %d, want exactly %d", reserved, st.Len()+1+5000)
	}
	for i := 0; i < 5000; i++ {
		net.NewPacket(0, 1)
	}
	if c := check("after the reserved packets"); c != reserved {
		t.Fatalf("store grew to %d inside its reservation of %d", c, reserved)
	}
}

// TestDenseNodeFootprint pins the per-node budget of docs/SCALING.md: Node
// is 32 bytes and the only node-indexed record New allocates on a
// fault-free central-queue network; a four-inlink network adds its 10 B
// per-tag side table. A new node-indexed array would push New past the
// bounds below.
func TestDenseNodeFootprint(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 32 {
		t.Fatalf("sim.Node is %d bytes, want 32", got)
	}
	topo := grid.NewSquareMesh(240)
	n := uint64(topo.N())
	for _, c := range []struct {
		queues  QueueModel
		perNode uint64
	}{{CentralQueue, 32}, {PerInlinkQueues, 42}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net := MustNew(Config{Topo: topo, K: 2, Queues: c.queues, RequireMinimal: true})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(net)
		if got, limit := after.TotalAlloc-before.TotalAlloc, c.perNode*n+64<<10; got > limit {
			t.Fatalf("New(queue model %d) on a %d-node mesh allocated %d B (%.1f B/node), want <= %d",
				c.queues, n, got, float64(got)/float64(n), limit)
		}
	}
}
