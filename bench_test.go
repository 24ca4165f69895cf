package meshroute_test

// One benchmark per experiment of the reproduction (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for recorded results). Each
// benchmark runs a representative instance of its experiment and reports
// the headline quantity (the lower bound, the makespan, the schedule
// length, the peak queue) as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the shape of every result in the paper.

import (
	"testing"

	"meshroute"

	"meshroute/internal/adversary"
	"meshroute/internal/clt"
	"meshroute/internal/experiments"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// BenchmarkE1LowerBoundMinimalAdaptive builds and replays the Theorem 14
// construction against the dimension-order router (Ω(n²/k²)).
func BenchmarkE1LowerBoundMinimalAdaptive(b *testing.B) {
	spec, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	var bound, undeliv int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewConstruction(120, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Replay(res, spec.New()); err != nil {
			b.Fatal(err)
		}
		bound, undeliv = res.Steps, res.UndeliveredHard
	}
	b.ReportMetric(float64(bound), "bound-steps")
	b.ReportMetric(float64(undeliv), "undelivered")
}

// BenchmarkE2LowerBoundDimOrder builds the Section 5 dimension-order
// construction against the Theorem 15 router and runs it to completion
// (lower bound Ω(n²/k), completion Θ(n²/k)).
func BenchmarkE2LowerBoundDimOrder(b *testing.B) {
	spec, _ := meshroute.LookupRouter(meshroute.RouterThm15)
	var bound, mk int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewDOConstruction(90, 4*1+1)
		if err != nil {
			b.Fatal(err)
		}
		c.Queues = sim.PerInlinkQueues
		c.NetK = 1
		res, err := c.Run(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		net, err := c.Replay(res, spec.New())
		if err != nil {
			b.Fatal(err)
		}
		m, done, err := adversary.RunToCompletion(net, spec.New(), 100*90*90)
		if err != nil || !done {
			b.Fatalf("completion failed: %v", err)
		}
		bound, mk = res.Steps, m
	}
	b.ReportMetric(float64(bound), "bound-steps")
	b.ReportMetric(float64(mk), "completion-steps")
}

// BenchmarkE3LowerBoundFarthestFirst runs the farthest-first construction
// (Ω(n²/k) even though the router is not destination-exchangeable).
func BenchmarkE3LowerBoundFarthestFirst(b *testing.B) {
	var bound, undeliv int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewFFConstruction(128, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(routers.DimOrderFF{})
		if err != nil {
			b.Fatal(err)
		}
		bound, undeliv = res.Steps, res.UndeliveredHard
	}
	b.ReportMetric(float64(bound), "bound-steps")
	b.ReportMetric(float64(undeliv), "undelivered")
}

// BenchmarkE4Theorem15Upper routes the reversal permutation with the
// Theorem 15 router (O(n²/k + n) worst case).
func BenchmarkE4Theorem15Upper(b *testing.B) {
	const n, k = 64, 1
	topo := grid.NewSquareMesh(n)
	var mk, maxq int
	for i := 0; i < b.N; i++ {
		net := sim.MustNew(routers.Thm15Config(topo, k))
		if err := workload.Reversal(topo).Place(net); err != nil {
			b.Fatal(err)
		}
		spec, _ := meshroute.LookupRouter(meshroute.RouterThm15)
		if _, err := net.Run(nil, spec.New(), 500*n*n, nil); err != nil || !net.Done() {
			b.Fatalf("incomplete: %v", err)
		}
		mk, maxq = net.Metrics.Makespan, net.Metrics.MaxQueueLen
	}
	b.ReportMetric(float64(mk), "makespan-steps")
	b.ReportMetric(float64(mk)/(float64(n*n)/float64(k)+float64(n)), "makespan/(n²/k+n)")
	b.ReportMetric(float64(maxq), "max-queue")
}

// BenchmarkE5CLTAlgorithm routes a random permutation with the Section 6
// algorithm (Theorem 34: <= 972n steps, <= 834 queue).
func BenchmarkE5CLTAlgorithm(b *testing.B) {
	const n = 81
	var res *clt.Result
	for i := 0; i < b.N; i++ {
		r, err := clt.New(clt.Config{N: n})
		if err != nil {
			b.Fatal(err)
		}
		res, err = r.Route(workload.Random(grid.NewSquareMesh(n), 7))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TimeFormula)/float64(n), "schedule/n")
	b.ReportMetric(float64(res.MaxQueue), "max-queue")
}

// BenchmarkE6LowerBoundHH runs the h-h construction (Ω(h³n²/(k+h)²)).
func BenchmarkE6LowerBoundHH(b *testing.B) {
	spec, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	var bound int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewHHConstruction(90, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		bound = res.Steps
	}
	b.ReportMetric(float64(bound), "bound-steps")
}

// BenchmarkE7Torus embeds the Theorem 14 construction in a torus.
func BenchmarkE7Torus(b *testing.B) {
	spec, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	var bound int
	for i := 0; i < b.N; i++ {
		par, err := adversary.NewParams(60, 1)
		if err != nil {
			b.Fatal(err)
		}
		c := &adversary.Construction{Par: par, Topo: grid.NewSquareTorus(120), H: 1}
		res, err := c.Run(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		bound = res.Steps
	}
	b.ReportMetric(float64(bound), "bound-steps")
}

// BenchmarkE8AverageCase routes random traffic with the Theorem 15 router
// (the ≈2n average-case framing of Section 1.1).
func BenchmarkE8AverageCase(b *testing.B) {
	const n = 64
	topo := grid.NewSquareMesh(n)
	spec, _ := meshroute.LookupRouter(meshroute.RouterThm15)
	var mk int
	for i := 0; i < b.N; i++ {
		net := sim.MustNew(routers.Thm15Config(topo, 2))
		if err := workload.Random(topo, int64(i)).Place(net); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(nil, spec.New(), 100*n, nil); err != nil || !net.Done() {
			b.Fatalf("incomplete: %v", err)
		}
		mk = net.Metrics.Makespan
	}
	b.ReportMetric(float64(mk)/float64(n), "makespan/n")
}

// BenchmarkE9EscapeHatches routes the E1-constructed permutation with the
// Section 6 algorithm — full destination knowledge evades the Ω(n²/k²)
// bound with an O(n) schedule.
func BenchmarkE9EscapeHatches(b *testing.B) {
	const n, k = 243, 2
	spec, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	c, err := adversary.NewConstruction(n, k)
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(spec.New())
	if err != nil {
		b.Fatal(err)
	}
	perm := &workload.Permutation{Pairs: res.Permutation}
	b.ResetTimer()
	var cres *clt.Result
	for i := 0; i < b.N; i++ {
		r, err := clt.New(clt.Config{N: n})
		if err != nil {
			b.Fatal(err)
		}
		cres, err = r.Route(perm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Steps), "dex-bound-steps")
	b.ReportMetric(float64(cres.TimeFormula), "clt-schedule-steps")
}

// BenchmarkE10NonminimalDelta runs the Section 5 nonminimal-extension
// construction against the δ-stray router (Ω(n²/((δ+1)³k²))).
func BenchmarkE10NonminimalDelta(b *testing.B) {
	var bound int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewDeltaConstruction(480, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		alg := func() sim.Algorithm { return meshroute.NewDexAdapter(policies.StrayDimOrder{Delta: 1}) }
		res, err := c.Run(alg())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Replay(res, alg()); err != nil {
			b.Fatal(err)
		}
		bound = res.Steps
	}
	b.ReportMetric(float64(bound), "bound-steps")
}

// BenchmarkE11CrossHardness routes the dimorder-constructed permutation
// with the zigzag router (the quantifier-order experiment).
func BenchmarkE11CrossHardness(b *testing.B) {
	specD, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	specZ, _ := meshroute.LookupRouter(meshroute.RouterZigZag)
	c, err := adversary.NewConstruction(120, 2)
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(specD.New())
	if err != nil {
		b.Fatal(err)
	}
	perm := &workload.Permutation{Pairs: res.Permutation}
	b.ResetTimer()
	var mk int
	for i := 0; i < b.N; i++ {
		net := sim.MustNew(specZ.Config(grid.NewSquareMesh(120), 2))
		if err := perm.Place(net); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(nil, specZ.New(), 40*res.Steps, nil); err != nil {
			b.Fatal(err)
		}
		mk = net.Metrics.Makespan
	}
	b.ReportMetric(float64(res.Steps), "bound-steps")
	b.ReportMetric(float64(mk), "zigzag-completion")
}

// BenchmarkA1ExchangeAblation compares the construction with and without
// its exchange rules.
func BenchmarkA1ExchangeAblation(b *testing.B) {
	spec, _ := meshroute.LookupRouter(meshroute.RouterDimOrder)
	var with, without int
	for i := 0; i < b.N; i++ {
		c, err := adversary.NewConstruction(120, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err := c.Run(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		c2, _ := adversary.NewConstruction(120, 2)
		res2, err := c2.RunWithoutExchanges(spec.New())
		if err != nil {
			b.Fatal(err)
		}
		with, without = res.UndeliveredHard, res2.UndeliveredHard
	}
	b.ReportMetric(float64(with), "undelivered-with-exchanges")
	b.ReportMetric(float64(without), "undelivered-without")
}

// BenchmarkA2CLTQueueConstant compares q = 408 with the improved q = 102.
func BenchmarkA2CLTQueueConstant(b *testing.B) {
	const n = 81
	perm := workload.Random(grid.NewSquareMesh(n), 5)
	var base, improved int
	for i := 0; i < b.N; i++ {
		r1, _ := clt.New(clt.Config{N: n})
		res1, err := r1.Route(perm)
		if err != nil {
			b.Fatal(err)
		}
		r2, _ := clt.New(clt.Config{N: n, ImprovedQ: true})
		res2, err := r2.Route(perm)
		if err != nil {
			b.Fatal(err)
		}
		base, improved = res1.TimeFormula, res2.TimeFormula
	}
	b.ReportMetric(float64(base)/float64(n), "schedule/n-q408")
	b.ReportMetric(float64(improved)/float64(n), "schedule/n-q102")
}

// BenchmarkE12DynamicLoad runs the Bernoulli-injection experiment at 60%
// of the bisection knee (the flat-latency regime).
func BenchmarkE12DynamicLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E12(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13RandomizedHatch routes the zigzag-constructed permutation
// with the randomized router (escape hatch 3).
func BenchmarkE13RandomizedHatch(b *testing.B) {
	specZ, _ := meshroute.LookupRouter(meshroute.RouterZigZag)
	c, err := adversary.NewConstruction(120, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(specZ.New())
	if err != nil {
		b.Fatal(err)
	}
	perm := &workload.Permutation{Pairs: res.Permutation}
	b.ResetTimer()
	var mk int
	for i := 0; i < b.N; i++ {
		net := sim.MustNew(sim.Config{
			Topo: grid.NewSquareMesh(120), K: 4, Queues: sim.CentralQueue,
			RequireMinimal: true, CheckInvariants: true,
		})
		if err := perm.Place(net); err != nil {
			b.Fatal(err)
		}
		if _, err := net.Run(nil, routers.RandZigZag{Seed: uint64(i)}, 40*res.Steps, nil); err != nil {
			b.Fatal(err)
		}
		mk = net.Metrics.Makespan
	}
	b.ReportMetric(float64(res.Steps), "bound-steps")
	b.ReportMetric(float64(mk), "randomized-completion")
}

// BenchmarkE14OpenProblem runs the open-problem probe (Section 7): the
// zigzag router on its own adversarially constructed permutation, forced
// to completion.
func BenchmarkE14OpenProblem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E14(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStep measures raw simulator throughput: one synchronous
// step of a fully loaded 64×64 mesh.
func BenchmarkEngineStep(b *testing.B) {
	const n = 64
	topo := grid.NewSquareMesh(n)
	spec, _ := meshroute.LookupRouter(meshroute.RouterThm15)
	net := sim.MustNew(routers.Thm15Config(topo, 2))
	if err := workload.Reversal(topo).Place(net); err != nil {
		b.Fatal(err)
	}
	alg := spec.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = sim.MustNew(routers.Thm15Config(topo, 2))
			if err := workload.Reversal(topo).Place(net); err != nil {
				b.Fatal(err)
			}
			alg = spec.New()
			b.StartTimer()
		}
		if err := net.StepOnce(alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStepMetricsSink is BenchmarkEngineStep with an
// obs.Records sink attached, so the cost of live per-step sampling can be
// compared against the uninstrumented loop (internal/sim's bench has the
// matching nil-sink variant).
func BenchmarkEngineStepMetricsSink(b *testing.B) {
	const n = 64
	topo := grid.NewSquareMesh(n)
	spec, _ := meshroute.LookupRouter(meshroute.RouterThm15)
	sink := &obs.Records{}
	net := sim.MustNew(routers.Thm15Config(topo, 2))
	net.SetMetricsSink(sink)
	if err := workload.Reversal(topo).Place(net); err != nil {
		b.Fatal(err)
	}
	alg := spec.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Done() {
			b.StopTimer()
			net = sim.MustNew(routers.Thm15Config(topo, 2))
			net.SetMetricsSink(sink)
			sink.Steps = sink.Steps[:0]
			if err := workload.Reversal(topo).Place(net); err != nil {
				b.Fatal(err)
			}
			alg = spec.New()
			b.StartTimer()
		}
		if err := net.StepOnce(alg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentHarness smoke-runs a full quick experiment (E5) via
// the shared harness used by cmd/experiments.
func BenchmarkExperimentHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}
