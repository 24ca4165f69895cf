// Command meshroute runs one routing algorithm on one workload and prints
// the routing statistics.
//
// Usage:
//
//	meshroute -router thm15 -n 64 -k 2 -workload reversal
//	meshroute -router clt -n 81 -workload random -seed 7
//	meshroute -router dimorder -n 32 -k 4 -workload hh -h 2 -torus
//
// Runs are described by scenario specs (internal/scenario): the flags
// build one, -dump-scenario prints it, and -scenario replays a committed
// spec file, so any run — including every pinned golden-digest scenario
// under testdata/scenarios/ — is reproducible from a single JSON file:
//
//	meshroute -scenario testdata/scenarios/thm15-n16-k2.json
//	meshroute -router zigzag -n 24 -workload reversal -dump-scenario > run.json
//
// Interrupting a run (SIGINT/SIGTERM) stops it between steps and prints
// the partial statistics and diagnostics instead of discarding them.
//
// Observability (see docs/OBSERVABILITY.md):
//
//	meshroute -router thm15 -n 64 -workload reversal -metrics-out run.jsonl
//	meshroute -router clt -n 81 -workload random -metrics-out spans.jsonl
//	meshroute -router thm15 -n 128 -workload reversal -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"meshroute"
	"meshroute/internal/bounds"
	"meshroute/internal/clt"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/trace"
	"meshroute/internal/viz"
)

func main() {
	// The flags that describe the run fill its Spec and fault schedule
	// directly; o holds the rest.
	spec := &scenario.Spec{Faults: &scenario.Faults{}}
	faults := spec.Faults
	var o cliOptions
	flag.StringVar(&spec.Router, "router", meshroute.RouterThm15, fmt.Sprintf("router: one of %v or clt", meshroute.RouterNames()))
	flag.IntVar(&spec.N, "n", 32, "mesh side length")
	flag.IntVar(&spec.K, "k", 2, "queue capacity per queue")
	flag.StringVar(&o.wl, "workload", "random", "workload: random|random-dest|transpose|reversal|bitrev|rotation|hh")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.h, "h", 2, "h for the h-h workload")
	flag.BoolVar(&o.torus, "torus", false, "use a torus instead of a mesh")
	flag.IntVar(&spec.MaxSteps, "steps", 0, "step budget (0 = automatic)")
	flag.BoolVar(&o.improved, "improved-q", false, fmt.Sprintf("clt: use the %dn constant", bounds.CLTStepsImproved))
	flag.BoolVar(&o.showViz, "viz", false, "print the occupancy heatmap after n/2 steps; with -trace also the link-traffic map and delivery curve")
	flag.StringVar(&o.traceFile, "trace", "", "write a JSON-lines step trace to this file")
	flag.StringVar(&spec.MetricsOut, "metrics-out", "", "write metrics JSONL (per-step samples; clt: phase spans) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&o.scenarioFile, "scenario", "", "run this scenario spec file instead of building one from the flags")
	flag.BoolVar(&o.dumpScenario, "dump-scenario", false, "print the run's scenario spec as JSON and exit without running")
	flag.StringVar(&o.submitFile, "submit", "", "submit this scenario spec file (or sweep array) to a meshrouted server instead of running locally")
	flag.StringVar(&o.server, "server", "http://127.0.0.1:8421", "meshrouted base URL for -submit")
	flag.DurationVar(&o.submitTimeout, "submit-timeout", 2*time.Minute, "overall budget for -submit, including retries on transient errors (0 = no limit)")
	flag.Uint64Var(&spec.Seed, "router-seed", 0, "seed for a randomized router's decisions (rand-zigzag; 0 = default stream)")
	flag.BoolVar(&spec.Analysis, "analyze", false, "compute the workload's congestion C and dilation D and report makespan/(C+D) (see docs/ANALYSIS.md)")

	flag.Int64Var(&faults.Seed, "fault-seed", 1, "fault schedule seed")
	flag.IntVar(&faults.LinkFailures, "fault-links", 0, "number of link-failure episodes to inject (0 = no link faults)")
	flag.IntVar(&faults.MeanDownSteps, "fault-down", 50, "mean duration of a transient link failure, in steps")
	flag.Float64Var(&faults.PermanentFrac, "fault-perm", 0, "fraction of link failures that are permanent (0..1)")
	flag.IntVar(&faults.NodeStalls, "fault-stalls", 0, "number of node-stall episodes to inject")
	flag.IntVar(&faults.MeanStallSteps, "fault-stall", 20, "mean duration of a node stall, in steps")
	flag.IntVar(&faults.Horizon, "fault-horizon", 0, "fault onsets are uniform in [1,horizon] (0 = 4n, the traffic timescale)")
	flag.BoolVar(&spec.FaultAware, "fault-aware", false, "use the router's fault-aware variant (zigzag, rand-zigzag)")
	flag.IntVar(&spec.Watchdog, "watchdog", 0, "abort after this many steps without a delivery (0 = off)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cpuOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuOut = f
	}
	err := run(ctx, spec, o)
	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memprofile != "" {
		if werr := writeHeapProfile(*memprofile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeHeapProfile forces a GC (for up-to-date accounting) and writes the
// heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cliOptions carries the flags that are not Spec or fault.Config fields.
type cliOptions struct {
	wl                       string
	seed                     int64
	h                        int
	torus, improved, showViz bool
	traceFile, scenarioFile  string
	dumpScenario             bool
	submitFile, server       string
	submitTimeout            time.Duration
}

// complete fills in what the flags describe outside the flag-bound spec s:
// the topology, the workload, and the fault schedule's default horizon, or
// no schedule at all when no episode is asked for.
func (o cliOptions) complete(s *scenario.Spec) error {
	if o.torus {
		s.Topology = scenario.TopoTorus
	}
	switch o.wl {
	case scenario.KindRandom, scenario.KindRandomDest:
		s.Workload = scenario.Workload{Kind: o.wl, Seed: o.seed}
	case scenario.KindTranspose, scenario.KindReversal, scenario.KindBitRev:
		s.Workload = scenario.Workload{Kind: o.wl}
	case scenario.KindRotation:
		s.Workload = scenario.Workload{Kind: o.wl, DX: s.N / 3, DY: s.N / 5}
	case scenario.KindHH:
		s.Workload = scenario.Workload{Kind: o.wl, H: o.h, Seed: o.seed}
	default:
		return fmt.Errorf("unknown workload %q", o.wl)
	}
	if f := s.Faults; f.LinkFailures > 0 || f.NodeStalls > 0 {
		// Onsets must land while traffic is still in flight to matter, so
		// the default horizon is the delivery timescale (4n covers the
		// ~2n–3n makespan of permutation workloads), not the step budget.
		if f.Horizon <= 0 {
			f.Horizon = 4 * s.N
		}
	} else {
		s.Faults = nil
	}
	return nil
}

// run executes what the flags ask for; spec is the flag-bound Spec.
func run(ctx context.Context, spec *scenario.Spec, o cliOptions) error {
	if o.submitFile != "" {
		return runSubmit(ctx, o)
	}
	if spec.Router == "clt" && o.scenarioFile == "" {
		return runCLT(spec, o)
	}

	if o.scenarioFile != "" {
		loaded, err := scenario.Load(o.scenarioFile)
		if err != nil {
			return err
		}
		// Presentation and output flags still apply to a loaded scenario.
		if spec.MetricsOut != "" {
			loaded.MetricsOut = spec.MetricsOut
		}
		if spec.Analysis {
			loaded.Analysis = true
		}
		spec = loaded
	} else if err := o.complete(spec); err != nil {
		return err
	} else if err := spec.Validate(); err != nil {
		return err
	}
	if o.dumpScenario {
		// Materialize the online kind's defaulted knobs so the dumped spec
		// spells out exactly what would run.
		spec.Workload.ApplyOnlineDefaults()
		if err := spec.Write(os.Stdout); err != nil {
			return err
		}
		// The fingerprint goes to stderr so stdout stays a clean spec file.
		if fp, err := spec.Fingerprint(); err == nil {
			fmt.Fprintf(os.Stderr, "fingerprint: %s\n", fp)
		}
		return nil
	}
	return runScenario(ctx, spec, o.showViz, o.traceFile)
}

// runScenario executes one spec through the Runner and prints statistics —
// full on success, partial with diagnostics when the run aborts. A
// non-empty traceFile gets the run's per-move trace, one JSON line per step.
func runScenario(ctx context.Context, spec *scenario.Spec, showViz bool, traceFile string) error {
	run, err := spec.Build()
	if err != nil {
		return err
	}
	if run.Faults != nil {
		fmt.Printf("faults: %s (seed %d)\n", run.Faults, spec.Faults.Seed)
	}
	var rec *trace.Recorder
	var traceOut *os.File
	if traceFile != "" {
		if traceOut, err = os.Create(traceFile); err != nil {
			return err
		}
		defer traceOut.Close() // for the early returns; the checked Close is below
		rec = trace.NewRecorder(traceOut)
		rec.Attach(run.Net)
	}
	r := scenario.Runner{}
	if showViz {
		snapshotAt := spec.N / 2 // mid-flight occupancy
		r.StepHook = func(net *sim.Network, step int) {
			if step == snapshotAt {
				fmt.Printf("occupancy after %d steps:\n%s\n", snapshotAt, viz.Occupancy(net))
			}
		}
	}
	res, err := r.RunBuilt(ctx, run)
	if err != nil {
		return err
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return err
		}
		if err := traceOut.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %d steps written to %s\n", res.Steps, traceFile)
	}
	if spec.MetricsOut != "" {
		fmt.Printf("metrics: %d step samples, %d spans written to %s\n",
			res.StepSamples, res.Spans, spec.MetricsOut)
	}
	printOutcome(spec, res.Outcome())
	if res.Err != nil {
		return res.Err
	}
	if showViz && rec != nil {
		f, err := os.Open(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		steps, err := trace.Read(f)
		if err != nil {
			return err
		}
		a := trace.Analyze(steps)
		fmt.Printf("\n%s\ndelivery curve:\n%s", viz.LinkTraffic(run.Net.Topo, a), viz.DeliveryCurve(a, 8))
	}
	return nil
}

// cltFlags are the flags a Section 6 run reads; runCLT refuses any other
// that is set, rather than ignore it.
var cltFlags = map[string]bool{"router": true, "n": true, "workload": true, "seed": true, "h": true,
	"improved-q": true, "metrics-out": true, "cpuprofile": true, "memprofile": true}

// runCLT routes with the Section 6 algorithm, which has its own phase
// structure and statistics and stays outside the scenario registry. s is
// the flag-bound Spec.
func runCLT(s *scenario.Spec, o cliOptions) error {
	if o.dumpScenario {
		return fmt.Errorf("-dump-scenario: the Section 6 router (clt) has no scenario spec form yet (ROADMAP item 13)")
	}
	var unused string
	flag.Visit(func(f *flag.Flag) {
		if !cltFlags[f.Name] {
			unused += " -" + f.Name
		}
	})
	if unused != "" {
		return fmt.Errorf("-router clt does not take%s", unused)
	}
	if err := o.complete(s); err != nil {
		return err
	}
	if err := s.ValidateWorkload(); err != nil {
		return err
	}
	topo := meshroute.NewMesh(s.N)
	perm := s.Workload.Permutation(topo)
	if err := perm.Validate(); err != nil {
		return fmt.Errorf("-router clt -workload %s: the Section 6 router routes permutations only: %w", s.Workload.Kind, err)
	}

	var sink *obs.JSONL
	var sinkOut *os.File
	if s.MetricsOut != "" {
		f, err := os.Create(s.MetricsOut)
		if err != nil {
			return err
		}
		sinkOut = f
		sink = obs.NewJSONL(f)
	}
	cfg := clt.Config{N: s.N, ImprovedQ: o.improved}
	if sink != nil {
		cfg.Sink = sink
	}
	r, err := clt.New(cfg)
	if err != nil {
		return err
	}
	res, err := r.Route(perm)
	if err != nil {
		return err
	}
	_, steps, _ := bounds.Theorem34.Bound(bounds.Instance{Topo: topo, ImprovedQ: o.improved})
	fmt.Printf("clt (Section 6, Theorem 34) on %d×%d, %d packets\n", s.N, s.N, res.Packets)
	fmt.Printf("  synchronized schedule: %d steps (%.1f·n; bound %d·n)\n",
		res.TimeFormula, float64(res.TimeFormula)/float64(s.N), steps/s.N)
	fmt.Printf("  measured work steps:   %d\n", res.TimeMeasured)
	fmt.Printf("  peak node occupancy:   %d (bound %d)\n", res.MaxQueue, bounds.CLTQueue)
	fmt.Printf("  base case steps:       %d, tile iterations: %d\n", res.BaseCaseSteps, res.Iterations)
	if sink != nil {
		if err := sink.Close(); err != nil {
			return err
		}
		if err := sinkOut.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics: %d step samples, %d spans written to %s\n",
			sink.StepCount(), sink.SpanCount(), s.MetricsOut)
	}
	return nil
}

// printOutcome prints a run's statistics, marked partial and followed by
// the engine's diagnostics when the run aborted: -scenario and -submit
// print every run through it, so their stdouts are the same.
func printOutcome(spec *scenario.Spec, o scenario.Outcome) {
	if o.Error != "" {
		fmt.Println("partial results:")
	}
	printStats(spec.Router, spec.N, spec.K, o.Stats)
	if o.Diagnostics != "" {
		fmt.Printf("diagnostics: %s\n", o.Diagnostics)
	}
}

func printStats(router string, n, k int, st meshroute.RouteStats) {
	fmt.Printf("%s on %d×%d (k=%d), %d packets\n", router, n, n, k, st.Total)
	fmt.Printf("  delivered: %d/%d (done=%v in %d steps)\n", st.Delivered, st.Total, st.Done, st.Steps)
	fmt.Printf("  makespan:  %d steps (%.2f·n)\n", st.Makespan, float64(st.Makespan)/float64(n))
	fmt.Printf("  max queue: %d, avg delay: %.1f\n", st.MaxQueue, st.AvgDelay)
	if st.FaultDrops > 0 {
		fmt.Printf("  fault drops: %d moves\n", st.FaultDrops)
	}
	if st.Online {
		fmt.Printf("  admission: %d offered, %d admitted, %d refused (rate %.3f), %d dropped\n",
			st.Offered, st.Admitted, st.Refused, st.RefusalRate(), st.Dropped)
		fmt.Printf("  throughput: %.3f delivered/step, delay p50/p95/p99: %.0f/%.0f/%.0f\n",
			st.Throughput, st.DelayP50, st.DelayP95, st.DelayP99)
	}
	if st.Analyzed {
		fmt.Printf("  analysis:  C=%d D=%d, cd_ratio=%.3f (makespan/(C+D))\n",
			st.Congestion, st.Dilation, st.CDRatio)
	}
}
