package sim

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

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

// BenchmarkStepDenseNilSink measures one engine step on a fully loaded
// mesh (the worst case for the per-step scan) with the metrics sink
// explicitly set to nil: the observability layer's disabled case costs one
// branch per step. TestStepDenseNilSinkZeroAllocs gates the same step at
// 0 allocations and 0 bytes.
func BenchmarkStepDenseNilSink(b *testing.B) {
	benchStepDense(b, nil)
}

// BenchmarkStepDenseMemSink measures the enabled-sampling overhead: the
// same dense step loop feeding an in-memory sink.
func BenchmarkStepDenseMemSink(b *testing.B) {
	benchStepDense(b, &obs.Records{})
}

// denseNet is the dense-step workload: a 64×64 mesh, k=4, fully loaded
// with the reversal permutation, reporting to sink.
func denseNet(tb testing.TB, sink obs.Sink) *Network {
	net := buildReversal(tb, 64, 4)
	net.SetMetricsSink(sink)
	return net
}

func benchStepDense(b *testing.B, sink obs.Sink) {
	net := denseNet(b, sink)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = denseNet(b, sink)
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

// warmTorusTransposeNet is torusTransposeNet plus twelve warm-up steps, so
// scratch buffers and queue regions reach their working size before the
// timer starts: at n=1024 a benchmark iteration count of ~5 would
// otherwise charge the one-time growth allocations to allocs/op and mask
// the steady state the zero-allocation gates pin.
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
// side lengths 64, 256 and 1024 (4K, 65K and 1M packets). The same steps
// are gated at 0 allocations and 0 bytes by TestStepTorusZeroAllocs (n=64,
// 256) and TestSteadyStateZeroAllocs (n=1024).
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

// requireZeroAllocSteps calls step once, then runs more times, and fails
// unless those runs together made no heap allocation and allocated no
// bytes. testing.AllocsPerRun cannot serve as this gate: it divides the
// malloc count by the number of runs in integer arithmetic, so a step that
// allocates once in every few calls reads 0. Like AllocsPerRun, it pins
// GOMAXPROCS to 1 while it measures.
func requireZeroAllocSteps(t *testing.T, runs int, step func() error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := step(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; mallocs != 0 || bytes != 0 {
		t.Fatalf("%d steady-state steps made %d allocations of %d bytes, want 0 and 0", runs, mallocs, bytes)
	}
}

// TestStepDenseNilSinkZeroAllocs gates BenchmarkStepDenseNilSink's step:
// after warm-up, a step on the fully loaded 64×64 mesh with the metrics
// sink set to nil allocates nothing.
func TestStepDenseNilSinkZeroAllocs(t *testing.T) {
	net := denseNet(t, nil)
	for i := 0; i < 12; i++ {
		if err := net.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
	}
	requireZeroAllocSteps(t, 60, func() error { return net.StepOnce(greedyXY{}) })
	if net.Done() {
		t.Fatal("the mesh drained inside the measured window; the steps were not dense")
	}
}

// TestStepLoopAllocs pins that Run adds no allocation to the steady-state
// steps it drives, with no hook, with a hook and under a cancelable
// context: each measured call runs one step of the loaded 64×64 mesh.
func TestStepLoopAllocs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooked := 0
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		after func(*Network, int)
	}{
		{"nil hook", nil, nil},
		{"hook", nil, func(*Network, int) { hooked++ }},
		{"cancelable context", ctx, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := denseNet(t, nil)
			run := func() error {
				steps, err := net.Run(tc.ctx, greedyXY{}, 1, tc.after)
				if err == nil && steps != 1 {
					err = fmt.Errorf("Run executed %d steps, want 1", steps)
				}
				return err
			}
			for i := 0; i < 12; i++ {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
			requireZeroAllocSteps(t, 60, run)
			if net.Done() {
				t.Fatal("the mesh drained inside the measured window; the steps were not dense")
			}
		})
	}
	if hooked != 73 {
		t.Fatalf("the hook ran %d times, want once for each of the 73 steps", hooked)
	}
}

// TestStepTorusZeroAllocs gates BenchmarkStepTorus's n=64 and n=256 cells:
// after warm-up, a saturated torus step allocates nothing. The measured
// steps end before the transpose permutation's n/2-step makespan.
func TestStepTorusZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 256} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			net := warmTorusTransposeNet(t, n)
			requireZeroAllocSteps(t, n/2-20, func() error { return net.StepOnce(greedyXY{}) })
			if net.Done() {
				t.Fatal("the torus drained inside the measured window; the steps were not saturated")
			}
		})
	}
}

// TestSteadyStateZeroAllocs pins the struct-of-arrays contract at the
// million-node scale: after warm-up (queue regions grown to their working
// capacity, scratch buffers sized), a serial engine step on a fully loaded
// 1024×1024 torus performs zero heap allocations. The race detector's leg
// skips it: building the network there takes about 40 s, for the count the
// run without the detector already gives.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() || RaceDetector {
		t.Skip("1M-packet network build is slow; skipped with -short and under the race detector")
	}
	net := warmTorusTransposeNet(t, 1024)
	requireZeroAllocSteps(t, 10, func() error { return net.StepOnce(greedyXY{}) })
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
