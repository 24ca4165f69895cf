package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"meshroute/internal/scenario"
)

const manifestPath = "../BENCHMARK.json"

// nameRE is the benchmark contract's syntax for workload and metric names.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The manifest and the code must agree on the workloads, and every name
// must fit the benchmark contract's syntax.
func TestManifestMatchesCode(t *testing.T) {
	m := testManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Errorf("manifest lists %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, w := range m.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("manifest workload %q is not implemented", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// Every workload, at toy size, untraced and traced: the run is correct and
// its result carries exactly the manifest's metrics — each name once, no
// name the manifest does not list (runOne refuses those).
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	m := testManifest(t)
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			res, simulated, err := runOne(runConfig{
				manifest: m, workload: w.Name, seed: 3, seconds: 0.05, trace: trace,
				sz: toySizes, outDir: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(simulated) == 0 {
				t.Errorf("%s trace=%v: no simulated statistics", w.Name, trace)
			}
			defs := m.EndToEnd
			if trace {
				defs = m.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, manifest lists %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case mv.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, manifest says %q", w.Name, d.Name, mv.Unit, d.Unit)
				case d.Name == "peak_rss_mb" && runtime.GOOS != "linux":
					// VmHWM comes from /proc; elsewhere it reads 0.
				case !trace && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, mv.Value)
				}
			}
		}
	}
}

// The traced operation's decorators, step hook and sink must not change
// what the engine computes.
func TestDecoratorsLeaveDigestUnchanged(t *testing.T) {
	e := &env{seed: 5, sz: toySizes, tmp: t.TempDir(), tr: newTracer(), cpu: map[string]float64{}, out: newOutcome()}
	for _, setup := range []func(*env) (runner, error){setupStaticTorus, setupOnlineMesh} {
		r, err := setup(e)
		if err != nil {
			t.Fatal(err)
		}
		er := r.(*engineRunner)
		digests := map[variant]string{}
		for _, v := range []variant{plain, traced} {
			body, err := specBytes(er.spec, v)
			if err != nil {
				t.Fatal(err)
			}
			jsonl := ""
			if v == traced {
				jsonl = er.spec.MetricsOut
			}
			out, err := runEngine(e, er.name, body, v, jsonl)
			if err != nil {
				t.Fatal(err)
			}
			digests[v] = out.digest
			if v == traced && out.alg.calls == 0 {
				t.Errorf("%s: the decorator saw no algorithm call", er.name)
			}
		}
		if digests[plain] != digests[traced] {
			t.Errorf("%s: plain digest %s, traced digest %s", er.name, digests[plain], digests[traced])
		}
	}
}

// A pinned statistic that does not match fails the run.
func TestWrongExpectedStatisticFails(t *testing.T) {
	e := &env{out: newOutcome(), expected: map[string]any{"digest": "abc", "makespan": json.Number("12")}}
	e.pin("makespan", 12)
	if e.out.failed != 0 {
		t.Fatalf("matching statistic failed: %v", e.out.failures)
	}
	e.pin("digest", "abd")
	e.pin("hops", 7) // pinned seed, statistic missing from the file
	if e.out.failed != 2 {
		t.Errorf("%d failures, want 2: %v", e.out.failed, e.out.failures)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(v))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("three samples: %v %v", q1, q3)
	}
}

// The profile decoder attributes a busy loop in this package to "bench".
func TestProfileAttribution(t *testing.T) {
	cpu := map[string]float64{}
	err := cpuByLayer(cpu, func() {
		x := uint64(1)
		for start := time.Now(); time.Since(start) < 200*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
			}
		}
		if x == 0 {
			t.Log(x)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpu["bench"] == 0 {
		t.Errorf("no sample attributed to the benchmark's own code: %v", cpu)
	}
	for _, c := range []struct{ fn, layer string }{
		{"meshroute/internal/dex.(*Adapter).fill", "dex"},
		{"meshroute/internal/grid.(*Torus).Profitable", "grid"},
		{"meshroute/internal/stats.Quantiles", ""},
		{"meshroute.RouteCLT", ""},
		{"encoding/json.Marshal", ""},
		{"main.(*countedAlg).Schedule", "bench"},
	} {
		if got := layerOf(c.fn); got != c.layer {
			t.Errorf("layerOf(%q) = %q, want %q", c.fn, got, c.layer)
		}
	}
}

// compare calls a synthetic slowdown of the bound plus a tenth on a
// lower-is-better metric "worse", passes one of the bound minus a tenth
// and equal files, and refuses files from different machines.
func TestCompareVerdicts(t *testing.T) {
	m := testManifest(t)
	mk := func(scale float64, cpus int) string {
		r := results{Schema: resultsSchema, Host: host{CPUModel: "test", NumCPU: cpus}, Seed: 1, Seconds: 10, Workloads: map[string]*workloadResult{}}
		for _, w := range m.Workloads {
			wr := &workloadResult{Attempted: 3, EndToEnd: map[string]*series{}, Simulated: map[string]any{"digest": "d"}}
			for _, d := range m.EndToEnd {
				vals := []float64{1.00, 1.01, 0.99}
				if d.Name == "wall_s" {
					for i := range vals {
						vals[i] *= scale
					}
				}
				q1, q3 := quartiles(vals)
				wr.EndToEnd[d.Name] = &series{Unit: d.Unit, Values: vals, Median: median(vals), Q1: q1, Q3: q3}
			}
			r.Workloads[w.Name] = wr
		}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 0.0
	for _, d := range m.EndToEnd {
		if d.Name == "wall_s" {
			bound = d.Bound
		}
	}
	base, slower, within, other := mk(1, 2), mk(1+bound+0.1, 2), mk(1+bound-0.1, 2), mk(1, 64)
	run := func(a, b string) (int, string) {
		var out, errOut bytes.Buffer
		code := compareMain(manifestPath, []string{a, b}, &out, &errOut)
		return code, out.String() + errOut.String()
	}
	if code, out := run(base, base); code != 0 || strings.Contains(out, "  worse\n") {
		t.Errorf("identical files: exit %d\n%s", code, out)
	}
	if code, out := run(base, slower); code != 1 || strings.Count(out, "  worse\n") != len(m.Workloads) {
		t.Errorf("wall_s beyond its bound: exit %d\n%s", code, out)
	}
	if code, out := run(base, within); code != 0 {
		t.Errorf("wall_s within its bound: exit %d\n%s", code, out)
	}
	if code, out := run(base, other); code != 2 || !strings.Contains(out, "machine classes") {
		t.Errorf("different machines: exit %d\n%s", code, out)
	}
	wide := []float64{1, 1.3, 0.7}
	if v := verdict(metricDef{Better: "lower", Bound: 0.1}, wide, wide); v != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q", v)
	}
	if v := verdict(metricDef{Better: "higher", Bound: 0.1}, wide, []float64{2, 2.6, 1.4}); v != "ok" {
		t.Errorf("every run better than every base run: verdict %q", v)
	}
}

// The sweep's job list repeats every 4th spec byte for byte and cycles
// the routers over the distinct ones.
func TestSweepJobList(t *testing.T) {
	e := &env{seed: 9, sz: toySizes, out: newOutcome()}
	r, err := setupSweep(e, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	bodies := r.(*sweepRunner).bodies
	routers := map[string]int{}
	for i, b := range bodies {
		if i%4 == 3 {
			if !bytes.Equal(b, bodies[i-3]) {
				t.Errorf("job %d does not repeat job %d", i, i-3)
			}
			continue
		}
		spec, err := scenario.Parse(b)
		if err != nil {
			t.Fatal(err)
		}
		routers[spec.Router]++
	}
	if len(routers) != len(sweepRouters) {
		t.Errorf("routers used: %v", routers)
	}
}
