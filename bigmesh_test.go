package meshroute_test

import (
	"context"
	"os"
	"runtime"
	"testing"

	"meshroute/internal/scenario"
)

// TestBigMeshTorusPermutation is the million-node acceptance run: a full
// transpose permutation on a 1024×1024 torus (1,048,576 packets) routed to
// completion, with the live heap pinned under the budget documented in
// docs/SCALING.md (~173 B/node measured on go1.24, asserted here with
// headroom at 512 MiB). The run takes a few minutes, so it is opt-in:
//
//	MESHROUTE_BIGMESH=1 go test . -run BigMeshTorus -timeout 30m
func TestBigMeshTorusPermutation(t *testing.T) {
	if os.Getenv("MESHROUTE_BIGMESH") == "" {
		t.Skip("set MESHROUTE_BIGMESH=1 to run the 1024×1024 torus permutation")
	}
	spec := &scenario.Spec{
		Name:     "bigmesh-zigzag-torus-n1024-k4",
		Topology: scenario.TopoTorus,
		N:        1024,
		K:        4,
		Router:   "zigzag",
		Workload: scenario.Workload{Kind: scenario.KindTranspose},
		MaxSteps: 100000,
	}
	run, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var r scenario.Runner
	res, err := r.RunBuilt(context.Background(), run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run aborted: %v", res.Err)
	}
	if got, want := res.Net.DeliveredCount(), 1024*1024; got != want {
		t.Fatalf("delivered %d/%d", got, want)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const budget = 512 << 20 // docs/SCALING.md budget with headroom
	if ms.HeapAlloc > budget {
		t.Fatalf("live heap %d MiB exceeds the %d MiB documented budget (steps=%d)",
			ms.HeapAlloc>>20, budget>>20, res.Steps)
	}
	t.Logf("n=1024 torus transpose: %d steps, live heap %d MiB (%.0f B/node)",
		res.Steps, ms.HeapAlloc>>20, float64(ms.HeapAlloc)/(1024*1024))
}
