package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden metrics JSONL file")

// TestGoldenJSONL pins the metrics wire format: a fixed 8×8 reversal
// permutation under the dimension-order router is fully deterministic, so
// the JSONL stream it emits must match testdata/golden_8x8_dimorder.jsonl
// byte for byte. A diff here means the schema documented in
// docs/OBSERVABILITY.md changed and the doc (and golden file, via
// `go test ./internal/obs -run Golden -update`) must be revised with it.
func TestGoldenJSONL(t *testing.T) {
	const n, k = 8, 2
	topo := grid.NewSquareMesh(n)
	net := sim.MustNew(sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true})
	if err := workload.Reversal(topo).Place(net); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	net.SetMetricsSink(sink)
	if _, err := net.Run(nil, dex.NewAdapter(policies.DimOrderFIFO{}), 10000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_8x8_dimorder.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("metrics JSONL diverged from %s (%d vs %d bytes); if the schema change is intentional, regenerate with -update and revise docs/OBSERVABILITY.md",
			golden, buf.Len(), len(want))
	}

	// The golden stream must also round-trip through the reader.
	rec, err := obs.ReadJSONLRecords(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	steps, spans, events := rec.Steps, rec.Spans, rec.Events
	if len(steps) == 0 || len(spans) != 0 || len(events) != 0 {
		t.Fatalf("golden stream decoded to %d steps, %d spans, %d events", len(steps), len(spans), len(events))
	}
	if final := steps[len(steps)-1]; final.DeliveredTotal != n*n || final.InFlight != 0 {
		t.Fatalf("golden run did not drain: %+v", final)
	}
}
