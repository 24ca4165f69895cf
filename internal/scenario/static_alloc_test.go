package scenario

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// staticTorusSpec is a static run of the kind the repository benchmark's
// static-torus workload makes: zigzag on an n×n torus, k=4, one random
// permutation, so every node holds a packet from step 1.
func staticTorusSpec(n int) *Spec {
	return &Spec{
		Name: fmt.Sprintf("static-zigzag-torus-n%d-k4", n), Topology: TopoTorus, N: n, K: 4,
		Router: "zigzag", Workload: Workload{Kind: KindRandom, Seed: 1},
	}
}

// buildAndRun is one run end to end: Spec.Build, then Runner.RunBuilt. A
// static run must deliver every packet; an online run ends at its horizon.
func buildAndRun(tb testing.TB, s *Spec) *Result {
	tb.Helper()
	run, err := s.Build()
	if err != nil {
		tb.Fatal(err)
	}
	var r Runner
	res, err := r.RunBuilt(context.Background(), run)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Err != nil || !(res.Stats.Done || res.Stats.Online) {
		tb.Fatalf("run did not complete: err=%v, delivered %d of %d", res.Err, res.Stats.Delivered, res.Stats.Total)
	}
	return res
}

// TestStaticRunAllocatesOnce holds a static run to the memory it keeps: the
// bytes Build and RunBuilt allocate may exceed the heap the finished run
// still holds by at most 30 %. A static run places its whole population
// before step 1, so AttachSource sizes the packet store, the slot arena and
// the step buffers once; a buffer left to grow on append's schedule inside
// the step loop would allocate each of its intermediate sizes as well, more
// than twice the live heap in all. Skipped under the race detector, whose
// shadow state inflates the heap.
func TestStaticRunAllocatesOnce(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	for _, n := range []int{96, 256} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			s := staticTorusSpec(n)
			var before, after, held runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res := buildAndRun(t, s)
			runtime.ReadMemStats(&after)
			runtime.GC()
			runtime.ReadMemStats(&held)
			runtime.KeepAlive(res)
			allocated := after.TotalAlloc - before.TotalAlloc
			live := int64(held.HeapAlloc) - int64(before.HeapAlloc)
			if live <= 0 {
				t.Fatalf("the finished run holds %d B of heap", live)
			}
			ratio := float64(allocated) / float64(live)
			t.Logf("n=%d: allocated %d B, finished run holds %d B (%.1f B/node): %.2f×",
				n, allocated, live, float64(live)/float64(n*n), ratio)
			if ratio > 1.3 {
				t.Fatalf("allocated %.2f× the heap the finished run holds, want at most 1.3×", ratio)
			}
		})
	}
}

// BenchmarkStaticRun reports the bytes and allocations of one static run,
// Build and RunBuilt, at two sizes. CI runs it once as a smoke.
func BenchmarkStaticRun(b *testing.B) {
	for _, n := range []int{96, 256} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s := staticTorusSpec(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildAndRun(b, s)
			}
		})
	}
}
