package sim

import (
	"fmt"
	"testing"

	"meshroute/internal/analysis"
	"meshroute/internal/grid"
)

// streamSource is a deterministic, never-exhausted arithmetic arrival
// process for online benchmarks and alloc tests: at every step, node id
// injects when (id+step)%149 == 0 (so over any 149 consecutive steps every
// node sources exactly once — ~n²/149 arrivals per step, far enough below
// the mesh bisection bound that the run reaches a genuine steady state),
// toward the shifted destination (id·13 + step·29) mod n². No RNG, no
// allocation beyond the caller's append buffer.
type streamSource struct {
	nn int
}

func (s *streamSource) Next(step int, buf []Injection) []Injection {
	if step < 1 {
		return buf
	}
	for id := 0; id < s.nn; id++ {
		if (id+step)%149 == 0 {
			dst := grid.NodeID((id*13 + step*29) % s.nn)
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: dst})
		}
	}
	return buf
}

func (s *streamSource) Exhausted(int) bool { return false }

// onlineXY extends the greedyXY test algorithm with the two admission rules
// every production router uses (see acceptDimOrderReserving in the policies
// package): the swap rule — an offer arriving on an inlink we scheduled a
// packet back along is accepted unconditionally, since by symmetry the
// neighbor accepts ours and occupancy is unchanged — and a reserved queue
// slot only column-phase packets may take. Without them, a plain
// accept-if-room policy wedges under sustained injection: a cycle of full
// central queues never moves again, deliveries stop, and the backlog grows
// without bound. With them the bench reaches a real injection/delivery
// equilibrium.
type onlineXY struct{ greedyXY }

func (a onlineXY) Accept(net *Network, n *Node, offers []Offer, acc []bool) {
	sched := a.Schedule(net, n)
	occ := net.QueueLen(n, 0)
	for i, o := range offers {
		switch {
		case net.P.Dst[o.P] == n.ID:
			acc[i] = true // delivery consumes no space
		case sched[o.Travel.Opposite()] >= 0:
			acc[i] = true // swap rule: occupancy-neutral exchange
		case o.Travel.Horizontal() && occ < net.K-1:
			acc[i] = true // row phase leaves the reserved slot free
			occ++
		case !o.Travel.Horizontal() && occ < net.K:
			acc[i] = true
			occ++
		}
	}
}

// onlineStreamNet builds an n×n mesh driven by the streamSource under the
// retry admission policy, pre-reserving store capacity for the given number
// of steps so steady-state appends never grow a column mid-measurement, and
// warms it for 3n steps (injection equilibrium: in-flight population and
// per-node backlog/queue capacities at their working sizes).
func onlineStreamNet(tb testing.TB, n, steps int) *Network {
	net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 4, Queues: CentralQueue})
	warm := 3 * n
	perStep := n*n/149 + 1
	net.ReserveInjections((steps + warm + 2) * perStep)
	if err := net.AttachSource(&streamSource{nn: n * n}, AdmitRetry); err != nil {
		tb.Fatal(err)
	}
	if !net.OpenWorkload() {
		tb.Fatal("stream source must register as an open workload")
	}
	for i := 0; i < warm; i++ {
		if err := net.StepOnce(onlineXY{}); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// BenchmarkStepOnline measures one engine step under sustained streaming
// injection on a 64×64 mesh (~27 arrivals per step, ~1K packets in flight
// at equilibrium). It is a zero-alloc guard like the StepTorus cells: the
// admission phase rides inside the step, so a steady-state online step must
// allocate nothing (TestOnlineSteadyStateStepAllocs gates it). The network
// is rebuilt every epoch outside the timer, since an open workload never
// reaches Done.
func BenchmarkStepOnline(b *testing.B) {
	const n = 64
	b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
		benchOnline(b, func() *Network { return onlineStreamNet(b, n, onlineEpoch) })
	})
}

// BenchmarkStepOnlineAnalyzed is the StepOnline cell with the C/D
// accumulator (internal/analysis) attached as the admission-time
// analyzer. The accumulator's Admit walks the canonical path of every
// admitted packet but never allocates, so this cell holds the same
// 0 B/op / 0 allocs/op contract as the analyzer-off one
// (TestAnalyzedSteadyStateStepAllocs gates it), which pins that analysis
// stays pay-for-play in CPU only.
func BenchmarkStepOnlineAnalyzed(b *testing.B) {
	const n = 64
	b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
		benchOnline(b, func() *Network { return onlineAnalyzedNet(b, n, onlineEpoch) })
	})
}

// onlineEpoch is the number of steps an online benchmark network serves
// before it is rebuilt.
const onlineEpoch = 1024

// benchOnline times StepOnce on networks from build, rebuilding one every
// onlineEpoch steps outside the timer.
func benchOnline(b *testing.B, build func() *Network) {
	net := build()
	left := onlineEpoch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			net = build()
			left = onlineEpoch
			b.StartTimer()
		}
		if err := net.StepOnce(onlineXY{}); err != nil {
			b.Fatal(err)
		}
		left--
	}
	b.ReportMetric(float64(net.TotalPackets())/float64(net.Step()), "arrivals/step")
}

// onlineAnalyzedNet is onlineStreamNet with a C/D accumulator installed
// before the source attaches (the same ordering the scenario layer uses,
// so step-0 and warm-up injections are counted).
func onlineAnalyzedNet(tb testing.TB, n, steps int) *Network {
	net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 4, Queues: CentralQueue})
	net.SetAnalyzer(analysis.NewAccumulator(net.Topo))
	warm := 3 * n
	perStep := n*n/149 + 1
	net.ReserveInjections((steps + warm + 2) * perStep)
	if err := net.AttachSource(&streamSource{nn: n * n}, AdmitRetry); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < warm; i++ {
		if err := net.StepOnce(onlineXY{}); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// TestOnlineSteadyStateStepAllocs pins the zero-alloc requirement
// directly: after warm-up, a steady-state engine step under continuous
// streaming injection — source pull, admission, backlog drain and all —
// performs zero heap allocations. The subtest keeps its name w0 (zero
// workers), the serial step, which is the only step there is.
func TestOnlineSteadyStateStepAllocs(t *testing.T) {
	t.Run("w0", func(t *testing.T) {
		const runs = 200
		net := onlineStreamNet(t, 64, runs+2)
		requireZeroAllocSteps(t, runs, func() error { return net.StepOnce(onlineXY{}) })
	})
}

// TestAnalyzedSteadyStateStepAllocs pins that attaching the C/D
// accumulator keeps the steady-state online step at zero heap
// allocations (analysis is pay-for-play in CPU, never in allocations),
// and that the accumulator actually accrued a result over the warm-up.
// The subtest keeps its name w0 (zero workers), the serial step.
func TestAnalyzedSteadyStateStepAllocs(t *testing.T) {
	t.Run("w0", func(t *testing.T) {
		const runs = 200
		net := onlineAnalyzedNet(t, 64, runs+2)
		requireZeroAllocSteps(t, runs, func() error { return net.StepOnce(onlineXY{}) })
		acc, ok := net.analyzer.(*analysis.Accumulator)
		if !ok {
			t.Fatalf("analyzer is %T, want *analysis.Accumulator", net.analyzer)
		}
		if r := acc.Result(); r.Congestion <= 0 || r.Dilation <= 0 {
			t.Fatalf("accumulator accrued nothing: C=%d D=%d", r.Congestion, r.Dilation)
		}
	})
}
