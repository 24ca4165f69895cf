// Command bench is the repository's benchmark: six workloads from one
// engine step to one fleet hop, a handful of end-to-end metrics with
// regression bounds, and one traced run per workload that attributes the
// time to layers. BENCHMARK.json at the repository root is its manifest;
// README.md in this directory explains the workloads and the metrics.
//
//	go run ./bench                                  every workload, results JSON
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                                one run, result line last
//	go run ./bench compare a.json b.json            two results files
//
// Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric of the manifest. Per-layer metrics carry no
// bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// metricValue and resultLine are the last line a single run prints.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runConfig is everything one run of one workload needs.
type runConfig struct {
	manifest *manifest
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // trace files and temporary files go here
	expected expectedStats
	log      io.Writer // human-readable report
}

// runOne sets the workload up (several times, for a steady setup_s),
// measures it for cfg.seconds on the calibrated clock (clock.go), checks
// its outputs, and returns the result line together with the run's exact
// simulated statistics.
func runOne(cfg runConfig) (resultLine, map[string]any, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return resultLine{}, nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return resultLine{}, nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-")
	if err != nil {
		return resultLine{}, nil, err
	}
	defer os.RemoveAll(tmp)

	env := &env{
		seed: cfg.seed, seconds: cfg.seconds, trace: cfg.trace, sz: cfg.sz, tmp: tmp,
		expected: cfg.expected.lookup(cfg.workload, cfg.seed, cfg.sz),
		out:      newOutcome(),
		cpu:      map[string]float64{},
	}
	if cfg.trace {
		env.tr = newTracer()
	}

	// Set-up runs several times, each between two reference spins, and
	// reports the steady value, so one cold start or one slow phase of the
	// host does not decide setup_s. Every repetition must see the same
	// warm-up digest: the set-up is itself a determinism check.
	var setups []float64
	var st runner
	var warm string
	after := spin()
	for rep := 0; rep < cfg.sz.setupReps; rep++ {
		if st != nil {
			st.close()
		}
		before := after
		t0 := time.Now()
		st, err = setup(env)
		if err != nil {
			return resultLine{}, nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		wall := time.Since(t0)
		after = spin()
		setups = append(setups, calibrated(wall, before, after))
		if rep > 0 {
			env.out.check(st.warmDigest() == warm, "set-up repetition %d: warm-up digest %s differs from %s", rep, st.warmDigest(), warm)
		}
		warm = st.warmDigest()
	}
	err = st.measure(env)
	st.close()
	if err != nil {
		return resultLine{}, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	out := env.out
	out.e2e["setup_s"] = steady(setups)
	if _, set := out.e2e["peak_rss_mb"]; !set {
		out.e2e["peak_rss_mb"] = peakRSSMB()
	}

	if cfg.trace {
		path := fmt.Sprintf("%s/trace-%s.json", cfg.outDir, cfg.workload)
		if err := env.tr.write(path, cfg.workload, env.cpu); err != nil {
			return resultLine{}, nil, err
		}
	}

	// The result carries exactly the manifest's metrics: end-to-end ones
	// from an untraced run, per-layer ones from a traced run. A layer the
	// workload never enters reports 0.
	defs, have := cfg.manifest.EndToEnd, out.e2e
	if cfg.trace {
		defs, have = cfg.manifest.PerLayer, out.layer
	}
	res := resultLine{Attempted: out.attempted, Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
		v, ok := have[d.Name]
		if !ok && !cfg.trace {
			return resultLine{}, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(cfg.log, "%-16s %-34s %16.6g %s\n", cfg.workload, d.Name, v, d.Unit)
	}
	for name := range have {
		if !known[name] {
			return resultLine{}, nil, fmt.Errorf("%s: metric %s is measured but BENCHMARK.json does not list it", cfg.workload, name)
		}
	}
	for _, msg := range out.failures {
		fmt.Fprintf(cfg.log, "%-16s FAILED %s\n", cfg.workload, msg)
	}
	res.Failed = out.failed
	res.Correct = out.failed == 0
	return res, out.simulated, nil
}

// The benchmark runs from the repository root: the driver's checkout, or
// `go run ./bench` by hand.
const (
	manifestFile = "BENCHMARK.json"
	expectedFile = "bench/expected.json"
	outDir       = "bench/out"
)

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(manifestFile, args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: every workload, each run in a child process)")
		seed     = fs.Int64("seed", 1, "workload seed; seeds 1 and 2 have pinned expected statistics")
		seconds  = fs.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
		outPath  = fs.String("out", outDir+"/results.json", "results file written when running every workload")
		pin      = fs.Bool("pin", false, "rewrite "+expectedFile+" from this machine's runs of seeds 1 and 2 and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	code, err := dispatch(*workload, *seed, *seconds, *trace != 0, *outPath, *pin, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	return code
}

func dispatch(workload string, seed int64, seconds float64, trace bool, outPath string, pin bool, stdout, stderr io.Writer) (int, error) {
	m, err := loadManifest(manifestFile)
	if err != nil {
		return 2, err
	}
	if seconds <= 0 {
		seconds = float64(m.RunSeconds)
	}
	if pin {
		if err := pinExpected(m, expectedFile, stdout); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if workload == "" {
		return runAll(m, seed, seconds, outPath, stdout, stderr), nil
	}
	exp, err := loadExpected(expectedFile)
	if err != nil {
		return 2, err
	}
	res, simulated, err := runOne(runConfig{
		manifest: m, workload: workload, seed: seed, seconds: seconds, trace: trace,
		sz: fullSizes, outDir: outDir, expected: exp, log: stdout,
	})
	if err != nil {
		return 1, err
	}
	// The exact simulated statistics go on their own line so the
	// all-workloads run can keep them; the result line stays last.
	simJSON, err := json.Marshal(simulated)
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res) // fails on a NaN or infinite metric
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "simulated %s\n%s\n", simJSON, line)
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }
