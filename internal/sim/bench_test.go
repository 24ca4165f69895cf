package sim

import (
	"fmt"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// BenchmarkStepDense measures one engine step on a fully loaded mesh (the
// worst case for the per-step scan).
func BenchmarkStepDense(b *testing.B) {
	const n = 64
	mk := func() *Network {
		net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 4, Queues: CentralQueue, RequireMinimal: true})
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, y)), net.Topo.ID(grid.XY(n-1-x, n-1-y))))
			}
		}
		return net
	}
	net := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = mk()
			b.StartTimer()
		}
		if err := net.StepOnce(greedyXY{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*n), "packets")
}

// BenchmarkStepSparse measures the occupied-node optimization: a huge mesh
// with few packets must cost per-packet, not per-node.
func BenchmarkStepSparse(b *testing.B) {
	const n = 512
	mk := func() *Network {
		net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 4, Queues: CentralQueue, RequireMinimal: true})
		for i := 0; i < 64; i++ {
			net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(i, 0)), net.Topo.ID(grid.XY(i, n-1))))
		}
		return net
	}
	net := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = mk()
			b.StartTimer()
		}
		if err := net.StepOnce(greedyXY{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepDenseNilSink is BenchmarkStepDense with the metrics sink
// explicitly set to nil: the numbers must match BenchmarkStepDense (the
// observability layer's disabled case costs one branch per step), and
// allocs/op is the regression guard for "nil sink allocates 0 extra".
func BenchmarkStepDenseNilSink(b *testing.B) {
	benchStepDense(b, nil)
}

// BenchmarkStepDenseMemSink measures the enabled-sampling overhead: the
// same dense step loop feeding an in-memory sink.
func BenchmarkStepDenseMemSink(b *testing.B) {
	benchStepDense(b, &obs.Memory{})
}

func benchStepDense(b *testing.B, sink obs.Sink) {
	const n = 64
	mk := func() *Network {
		net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 4, Queues: CentralQueue, RequireMinimal: true})
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, y)), net.Topo.ID(grid.XY(n-1-x, n-1-y))))
			}
		}
		net.SetMetricsSink(sink)
		return net
	}
	net := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = mk()
			b.StartTimer()
		}
		if err := net.StepOnce(greedyXY{}); err != nil {
			b.Fatal(err)
		}
	}
}

// torusTransposeNet builds an n×n torus fully loaded with the transpose
// permutation — the scaling workload of docs/SCALING.md: one packet per
// node, average distance ~n/2, so the step loop stays saturated for
// hundreds of steps before a rebuild.
func torusTransposeNet(n int) *Network {
	net := MustNew(Config{Topo: grid.NewSquareTorus(n), K: 4, Queues: CentralQueue})
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, y)), net.Topo.ID(grid.XY(y, x))))
		}
	}
	return net
}

// warmTorusTransposeNet is torusTransposeNet plus three warm-up steps, so
// scratch buffers and queue regions reach their working size before the
// timer starts: at n=1024 a benchmark iteration count of ~5 would
// otherwise charge the one-time growth allocations to allocs/op and mask
// the steady state the 0-alloc gate pins.
func warmTorusTransposeNet(tb testing.TB, n int) *Network {
	net := torusTransposeNet(n)
	for i := 0; i < 12; i++ {
		if err := net.StepOnce(greedyXY{}); err != nil {
			tb.Fatal(err)
		}
	}
	return net
}

// BenchmarkStepTorus is the scaling series: one fully loaded torus step at
// side lengths 64, 256 and 1024 (4K, 65K and 1M packets). Every cell is a
// zero-alloc guard: a steady-state step must not allocate at any size
// (benchgate gates all three cells at 0 allocs/op and 0 B/op).
func BenchmarkStepTorus(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			net := warmTorusTransposeNet(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if net.Done() {
					b.StopTimer()
					net = warmTorusTransposeNet(b, n)
					b.StartTimer()
				}
				if err := net.StepOnce(greedyXY{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n*n), "packets")
		})
	}
}

// TestSteadyStateZeroAllocs pins the struct-of-arrays contract at the
// million-node scale: after warm-up (queue regions grown to their working
// capacity, scratch buffers sized), a serial engine step on a fully loaded
// 1024×1024 torus performs zero heap allocations.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-packet network build is slow; skipped with -short")
	}
	net := warmTorusTransposeNet(t, 1024)
	avg := testing.AllocsPerRun(5, func() {
		if err := net.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state step allocates %v times at n=1024, want 0", avg)
	}
}

// BenchmarkPlace measures placement throughput.
func BenchmarkPlace(b *testing.B) {
	const n = 64
	for i := 0; i < b.N; i++ {
		net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 1, Queues: CentralQueue})
		for id := grid.NodeID(0); int(id) < n*n; id++ {
			net.MustPlace(net.NewPacket(id, id)) // fixed points: no routing
		}
	}
}
