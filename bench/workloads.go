package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// sizes fixes how much work one operation of each workload is. fullSizes
// is what BENCHMARK.json measures and bench/expected.json pins; toySizes
// is the same code path at a size `go test` can afford.
type sizes struct {
	torusN, warmTorusN             int // static-torus side, and its warm-up's
	onlineN, onlineHorizon         int
	warmOnlineHorizon              int
	advN, advK, warmAdvN           int
	cltN, warmCLTN                 int
	sweepN, sweepJobs, sweepSample int     // job mesh side, job-list length, verified sample
	sweepRSSJob                    int     // peak RSS is read when this job is handed out
	sweepSlice                     float64 // seconds of closed loop between two reference spins
	microPairs                     int     // pairs per micro-measurement of a leaf layer
	setupReps                      int
}

// An operation takes 0.08–0.3 s here and a sweep slice 0.2 s: short enough
// to lie inside one of the host's clock-speed phases (clock.go), and a 16 s
// run times 50–150 of them. The issue's sizes (torus n=256, online n=64 for
// 6000 steps, adversary n=720, CLT n=243) made an operation 2–9 s, one or
// two to a run, and the run's number was whatever speed the host happened
// to have (README.md, "Sizing").
var fullSizes = sizes{
	torusN: 96, warmTorusN: 64,
	onlineN: 32, onlineHorizon: 400, warmOnlineHorizon: 200,
	advN: 240, advK: 2, warmAdvN: 240,
	cltN: 81, warmCLTN: 81,
	sweepN: 32, sweepJobs: 40000, sweepSample: 32, sweepRSSJob: 2000,
	sweepSlice: 0.2,
	microPairs: 1 << 20,
	setupReps:  7,
}

var toySizes = sizes{
	torusN: 16, warmTorusN: 8,
	onlineN: 16, onlineHorizon: 60, warmOnlineHorizon: 20,
	advN: 120, advK: 2, warmAdvN: 120,
	cltN: 27, warmCLTN: 9,
	sweepN: 8, sweepJobs: 20, sweepSample: 8, sweepRSSJob: 4,
	sweepSlice: 0.02,
	microPairs: 1 << 10,
	setupReps:  2,
}

// env is what a workload sees of the run it is part of.
type env struct {
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	tmp      string             // scratch directory, removed after the run
	expected map[string]any     // pinned simulated statistics, nil if this seed has none
	tr       *tracer            // nil in an untraced run
	cpu      map[string]float64 // profiled nanoseconds of the traced operations, by layer
	out      *outcome
}

// outcome collects what a run measured and what it got wrong.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]float64
	simulated         map[string]any // exact simulated statistics; must never move
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, simulated: map[string]any{}}
}

// fail counts one failed operation or check; the first few are kept for
// the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and fails it unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// pin records one exact simulated statistic and, where the seed has pinned
// values, checks it against them. Values are ints and strings, so
// comparing their printed forms compares them exactly.
func (e *env) pin(name string, v any) {
	e.out.simulated[name] = v
	if e.expected == nil {
		return
	}
	want, ok := e.expected[name]
	e.out.check(ok && fmt.Sprint(want) == fmt.Sprint(v),
		"simulated statistic %s = %v, bench/expected.json says %v", name, v, want)
}

// A workload's set-up builds a runner; the runner then measures itself.
type runner interface {
	// warmDigest identifies the outcome of the set-up's warm-up run.
	warmDigest() string
	// measure runs operations for e.seconds and fills e.out.
	measure(e *env) error
	// close stops everything set-up started and waits for it.
	close()
}

// workloads maps each workload of the manifest to its set-up.
var workloads = map[string]func(e *env) (runner, error){
	"static-torus":         setupStaticTorus,
	"online-mesh":          setupOnlineMesh,
	"lowerbound-adversary": setupAdversary,
	"clt-theorem34":        setupCLT,
	"sweep-service":        func(e *env) (runner, error) { return setupSweep(e, false) },
	"sweep-fleet":          func(e *env) (runner, error) { return setupSweep(e, true) },
}

// variant is how one operation of a single-run workload is executed. An
// untraced run executes only plain operations; a traced run interleaves
// the others, so that it can report what tracing, the invariant checker
// and a second engine worker cost against plain operations of the same
// process.
type variant int

const (
	plain variant = iota
	traced
	noInvariants
	workers2
)

// op is one executed operation.
type op struct {
	v      variant
	wall   time.Duration
	cal    float64 // wall in seconds at full clock (clock.go)
	hops   int     // simulated link traversals
	digest string
}

// rssOps operations open every measurement. They are the warm-up, they
// are not timed, and each starts as a fresh process would — from a
// collected heap whose free pages went back to the system, with the
// kernel's high-water mark reset — so that its peak resident set is one
// operation's. Timed operations keep the heap instead: faulting 40 MB back
// in costs a different amount every time.
const rssOps = 5

// measureOps executes run(v, i) for operation i = 0, 1, … under each of
// the variants in turn until e.seconds have passed, each between two
// reference spins, and fills the end-to-end metrics from the plain
// operations.
// Every operation must reproduce the first one's digest: decorators, the
// invariant switch and engine workers change timing, never outcomes.
func measureOps(e *env, variants []variant, run func(v variant, i int) (op, error)) ([]op, error) {
	digest := ""
	var rss []float64
	for i := 0; i < rssOps; i++ {
		debug.FreeOSMemory()
		resetPeakRSS()
		o, err := run(plain, i)
		if err != nil {
			return nil, err
		}
		rss = append(rss, peakRSSMB())
		if i == 0 {
			digest = o.digest
		}
		e.out.check(o.digest == digest, "warm-up operation %d: digest %s, the first gave %s", i, o.digest, digest)
	}
	// The median: how high one operation's resident set climbs depends on
	// whether a collection cycle is in flight while its network is
	// allocated — everything allocated during a cycle survives it — so the
	// figure has two modes, 8 % apart on online-mesh, and the rarer one
	// turns up in one operation out of five or six.
	e.out.e2e["peak_rss_mb"] = median(rss)

	var ops []op
	start := time.Now()
	for n := 0; n < len(variants) || time.Since(start).Seconds() < e.seconds; n++ {
		v, i := variants[n%len(variants)], rssOps+n/len(variants)
		// Every timed operation starts from a collected heap, so that each
		// pays for the same collections.
		runtime.GC()
		before := spin()
		o, err := run(v, i)
		if err != nil {
			return nil, err
		}
		o.v, o.cal = v, calibrated(o.wall, before, spin())
		e.out.check(o.digest == digest, "operation %d variant %d: digest %s, the first gave %s", i, v, o.digest, digest)
		ops = append(ops, o)
	}

	// On the single-run workloads the three time metrics are one
	// measurement in three units: the contract wants every end-to-end
	// metric from every workload, and the sweeps are where they differ.
	var perS, hopsPerS []float64
	for _, o := range ops {
		if o.v == plain {
			perS = append(perS, 1/o.cal)
			hopsPerS = append(hopsPerS, float64(o.hops)/o.cal)
		}
	}
	e.out.e2e["wall_s"] = typical(ops, plain)
	e.out.e2e["jobs_per_s"] = steadyRate(perS)
	e.out.e2e["packet_hops_per_s"] = steadyRate(hopsPerS)
	if e.trace {
		if t := typical(ops, plain); t > 0 {
			e.out.layer["trace.overhead_share"] = typical(ops, traced)/t - 1
		}
	}
	return ops, nil
}

// typical is the steady calibrated duration of the operations run under
// variant v; 0 if there were none.
func typical(ops []op, v variant) float64 {
	var c []float64
	for _, o := range ops {
		if o.v == v {
			c = append(c, o.cal)
		}
	}
	return steady(c)
}

// variantsFor lists the variants a run interleaves.
func variantsFor(e *env) []variant {
	if !e.trace {
		return []variant{plain}
	}
	return []variant{plain, traced}
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set
// at its present size (Linux 4.0 and later). Where that is not possible
// the mark stays the process's.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// peakRSSMB is the process's high-water resident set (VmHWM) since the
// last reset, the memory a user of the run has to have.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// memDelta runs f and returns the heap allocations it made.
func memDelta(f func()) (mallocs, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
