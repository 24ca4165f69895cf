package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseBenchAggregatesCounts(t *testing.T) {
	p := writeTemp(t, `goos: linux
BenchmarkStepDense        	   24274	     96960 ns/op	      4096 packets	      33 B/op	       0 allocs/op
BenchmarkStepDense        	   20000	    102000 ns/op	      4096 packets	      40 B/op	       1 allocs/op
BenchmarkStepSparse-8     	  265894	      8387 ns/op	     527 B/op	      63 allocs/op
PASS
`)
	rs, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	d := rs["BenchmarkStepDense"]
	if d == nil || d.runs != 2 {
		t.Fatalf("dense runs = %+v, want 2 runs", d)
	}
	if d.bestNs != 96960 {
		t.Fatalf("best ns/op = %v, want min of both runs", d.bestNs)
	}
	if d.maxAlloc != 1 {
		t.Fatalf("max allocs = %d, want worst of both runs", d.maxAlloc)
	}
	// The -8 GOMAXPROCS suffix must be stripped so baselines from
	// different machines still match by name.
	if s := rs["BenchmarkStepSparse"]; s == nil || s.bestNs != 8387 || s.maxAlloc != 63 {
		t.Fatalf("sparse = %+v", s)
	}
}

func TestParseBenchAggregatesBytes(t *testing.T) {
	p := writeTemp(t, `BenchmarkStepTorus/n64-8   	    2000	    512345 ns/op	      4096 packets	       0 B/op	       0 allocs/op
BenchmarkStepTorus/n64-8   	    2000	    500000 ns/op	      4096 packets	      16 B/op	       0 allocs/op
`)
	rs, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rs["BenchmarkStepTorus/n64"]
	if r == nil {
		t.Fatal("sub-benchmark name with slashes not parsed")
	}
	// B/op takes the worst run: a sub-one-per-op allocation rounds to
	// 0 allocs/op but still shows up as bytes, and the zero-bytes gate
	// must catch it even if only one of the -count runs exposed it.
	if r.maxBytes != 16 {
		t.Fatalf("max B/op = %d, want 16 (worst of both runs)", r.maxBytes)
	}
	if r.maxAlloc != 0 {
		t.Fatalf("max allocs/op = %d, want 0", r.maxAlloc)
	}
	if r.bestNs != 500000 {
		t.Fatalf("best ns/op = %v, want min of both runs", r.bestNs)
	}
}

func TestStepTorusCellsCoverFullMatrix(t *testing.T) {
	cells := strings.Split(stepTorusCells, ",")
	if len(cells) != 3 {
		t.Fatalf("stepTorusCells has %d entries, want one per size", len(cells))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %q", c)
		}
		seen[c] = true
	}
	for _, n := range []string{"n64", "n256", "n1024"} {
		if name := "BenchmarkStepTorus/" + n; !seen[name] {
			t.Fatalf("stepTorusCells missing %s", name)
		}
	}
}

func TestParseBenchIgnoresNonBenchLines(t *testing.T) {
	p := writeTemp(t, "cpu: Intel\nok  \tmeshroute\t1.0s\n")
	rs, err := parseBench(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("parsed %d results from non-bench output", len(rs))
	}
}
