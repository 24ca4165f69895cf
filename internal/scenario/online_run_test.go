package scenario

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"meshroute/internal/sim"
)

// onlineMeshSpec is an online run of the kind the repository benchmark's
// online-mesh workload makes: thm15 on an n×n mesh, k=4, Bernoulli arrivals
// at 1.92/n per node and step (about half the bisection rate) for 400
// steps under retry admission, with the analyzer and a metrics file.
func onlineMeshSpec(tb testing.TB, n int) *Spec {
	return &Spec{
		Name: fmt.Sprintf("online-thm15-mesh-n%d-k4", n), Topology: TopoMesh, N: n, K: 4,
		Router: "thm15", Analysis: true, MetricsOut: filepath.Join(tb.TempDir(), "online.jsonl"),
		Workload: Workload{
			Kind: KindOnline, Process: ProcessBernoulli, Admission: AdmissionRetry,
			Rate: 1.92 / float64(n), Horizon: 400, Seed: 1,
		},
	}
}

// TestOnlineRunAllocatesOnce holds an online run to the memory it keeps:
// the bytes Build and RunBuilt allocate may exceed the heap the finished
// run still holds by at most 40 %. AttachSource reserves the packet store
// from the arrival process's mean, so the store is allocated once; a store
// left to double as packets arrive would allocate each of its intermediate
// sizes as well, more than twice the live heap in all. Skipped under the
// race detector, whose shadow state inflates the heap.
func TestOnlineRunAllocatesOnce(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	for _, n := range []int{32, 64} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			s := onlineMeshSpec(t, n)
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
			t.Logf("n=%d: %d packets, allocated %d B, finished run holds %d B: %.2f×",
				n, res.Stats.Total, allocated, live, ratio)
			if ratio > 1.4 {
				t.Fatalf("allocated %.2f× the heap the finished run holds, want at most 1.4×", ratio)
			}
		})
	}
}

// BenchmarkOnlineRun reports the bytes and allocations of one online-mesh
// run, Build and RunBuilt. CI runs it once as a smoke.
func BenchmarkOnlineRun(b *testing.B) {
	s := onlineMeshSpec(b, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildAndRun(b, s)
	}
}

// TestDelayPercentilesMatchSorting holds the runner's time-in-system
// percentiles, read from a histogram of delays, to the nearest rank of
// every delivered packet's delay sorted, for each committed dynamic or
// online scenario and the online-mesh run.
func TestDelayPercentilesMatchSorting(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{onlineMeshSpec(t, 32)}
	for _, path := range paths {
		s, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Workload.Dynamic() {
			specs = append(specs, s)
		}
	}
	if len(specs) < 4 {
		t.Fatalf("%d online runs, want the online-mesh run and the committed dynamic scenarios", len(specs))
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			res := buildAndRun(t, s)
			ps := &res.Net.P
			var delays []int
			for p := sim.PacketID(1); int(p) <= ps.Len(); p++ {
				if ps.Delivered(p) {
					delays = append(delays, int(ps.DeliverStep[p]-ps.InjectStep[p]))
				}
			}
			slices.Sort(delays)
			st := res.Stats
			got := []float64{st.DelayP50, st.DelayP95, st.DelayP99}
			for i, q := range []float64{0.50, 0.95, 0.99} {
				want := float64(delays[min(max(int(math.Ceil(q*float64(len(delays))))-1, 0), len(delays)-1)])
				if got[i] != want {
					t.Errorf("%d delivered: p%g delay %v, sorted nearest rank %v", len(delays), 100*q, got[i], want)
				}
			}
		})
	}
}
