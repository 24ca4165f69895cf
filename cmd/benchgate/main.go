// Command benchgate is the CI benchmark-regression gate. It parses two
// `go test -bench` outputs — a committed baseline and the current run — and
// fails (exit 1) if
//
//   - any benchmark named in -zero-alloc reports a nonzero allocs/op in the
//     current run, or
//   - any benchmark named in -zero-bytes reports a nonzero B/op in the
//     current run (the stricter form: sub-one-per-op allocations round to
//     0 allocs/op but still show up as bytes), or
//   - any benchmark present in both files regressed its best (minimum)
//     ns/op by more than -max-regress percent.
//
// With -count > 1 the best iteration is compared, which suppresses
// scheduling noise: a real regression slows every iteration, while noise
// rarely speeds one up.
//
// Usage:
//
//	go test ./internal/sim -bench 'StepDense|StepSparse|StepTorus|StepOnline' -benchmem -count 5 -run '^$' -timeout 60m > current.txt
//	go run ./cmd/benchgate -baseline out/BENCH_BASELINE.txt -current current.txt
//
// Regenerate the baseline (after an intended perf change, on the same
// machine class) by committing the current output as the new baseline.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// stepTorusCells names every cell of the StepTorus scaling series: the full
// set is required to run at 0 B/op and 0 allocs/op (the steady-state
// contract at every size).
const stepTorusCells = "BenchmarkStepTorus/n64,BenchmarkStepTorus/n256,BenchmarkStepTorus/n1024"

// stepOnlineCells names the streaming-injection cell: the per-step
// admission phase (source pull, bounded-buffer admission, backlog drain)
// must also hold the zero-alloc contract.
const stepOnlineCells = "BenchmarkStepOnline/n64"

// stepOnlineAnalyzedCells names the StepOnline cell that runs with the
// congestion/dilation accumulator attached (internal/analysis): the
// analyzer's admission hook must stay allocation-free, so analysis is
// pay-for-play in CPU only — and with the analyzer absent (all other
// gated cells) the hook is one nil check.
const stepOnlineAnalyzedCells = "BenchmarkStepOnlineAnalyzed/n64"

// result is the aggregated outcome of one benchmark across -count runs.
type result struct {
	name     string
	bestNs   float64
	maxAlloc int64
	maxBytes int64
	runs     int
}

// parseBench reads `go test -bench` output, aggregating repeated lines of
// the same benchmark (from -count) into best ns/op and worst allocs/op and
// B/op.
func parseBench(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]*result{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: Name N ns/op-value "ns/op" [value unit]...
		name := strings.SplitN(fields[0], "-", 2)[0] // strip -GOMAXPROCS suffix
		r := out[name]
		if r == nil {
			r = &result{name: name, bestNs: -1, maxAlloc: -1, maxBytes: -1}
			out[name] = r
		}
		r.runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				ns, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad ns/op %q", name, v)
				}
				if r.bestNs < 0 || ns < r.bestNs {
					r.bestNs = ns
				}
			case "allocs/op":
				a, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad allocs/op %q", name, v)
				}
				if a > r.maxAlloc {
					r.maxAlloc = a
				}
			case "B/op":
				bb, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad B/op %q", name, v)
				}
				if bb > r.maxBytes {
					r.maxBytes = bb
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "out/BENCH_BASELINE.txt", "committed baseline `go test -bench` output")
	current := flag.String("current", "", "current `go test -bench` output (required)")
	maxRegress := flag.Float64("max-regress", 10, "max allowed ns/op regression, percent")
	zeroAlloc := flag.String("zero-alloc", "BenchmarkStepDenseNilSink,"+stepTorusCells+","+stepOnlineCells+","+stepOnlineAnalyzedCells, "comma-separated benchmarks required to report 0 allocs/op")
	zeroBytes := flag.String("zero-bytes", stepTorusCells+","+stepOnlineCells+","+stepOnlineAnalyzedCells, "comma-separated benchmarks required to report 0 B/op")
	flag.Parse()
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -current is required")
		os.Exit(2)
	}
	base, err := parseBench(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := parseBench(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: current: %v\n", err)
		os.Exit(2)
	}
	failed := false
	for _, name := range strings.Split(*zeroAlloc, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := cur[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "FAIL %s: required zero-alloc benchmark missing from current run\n", name)
			failed = true
		case r.maxAlloc != 0:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d allocs/op, want 0\n", name, r.maxAlloc)
			failed = true
		default:
			fmt.Printf("ok   %s: 0 allocs/op\n", name)
		}
	}
	for _, name := range strings.Split(*zeroBytes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := cur[name]
		switch {
		case !ok:
			fmt.Fprintf(os.Stderr, "FAIL %s: required zero-bytes benchmark missing from current run\n", name)
			failed = true
		case r.maxBytes != 0:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d B/op, want 0\n", name, r.maxBytes)
			failed = true
		default:
			fmt.Printf("ok   %s: 0 B/op\n", name)
		}
	}
	for name, b := range base {
		c, ok := cur[name]
		if !ok || b.bestNs <= 0 {
			continue
		}
		pct := (c.bestNs - b.bestNs) / b.bestNs * 100
		if pct > *maxRegress {
			fmt.Fprintf(os.Stderr, "FAIL %s: best ns/op %.0f vs baseline %.0f (%+.1f%% > %+.1f%% allowed)\n",
				name, c.bestNs, b.bestNs, pct, *maxRegress)
			failed = true
		} else {
			fmt.Printf("ok   %s: best ns/op %.0f vs baseline %.0f (%+.1f%%)\n", name, c.bestNs, b.bestNs, pct)
		}
	}
	if failed {
		os.Exit(1)
	}
}
