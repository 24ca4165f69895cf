package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"meshroute/internal/analysis"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Span names of an engine operation.
const (
	spanRun     = "run"
	spanParse   = "scenario.Parse"
	spanBuild   = "scenario.Build"
	spanExecute = "scenario.RunBuilt"
	spanStep    = "sim.step"
	spanSink    = "obs.sink"
)

// engineOut is one engine operation's outcome.
type engineOut struct {
	op
	res   *scenario.Result
	parse time.Duration
	build time.Duration
	// Set by a traced operation only.
	stepNs         []float64
	alg            *countedAlg
	sink           *timedSink
	mallocs, bytes uint64 // heap allocations of the stepping loop
	heapBytes      uint64 // live heap the finished network holds
	delayP99       float64
}

// digestNet hashes every packet's (ID, InjectStep, DeliverStep, Hops) in
// ID order with FNV-1a, the digest engine_digest_test.go pins.
func digestNet(net *sim.Network) string {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v int64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range net.Packets() {
		w(int64(p.ID))
		w(int64(p.InjectStep))
		w(int64(p.DeliverStep))
		w(int64(p.Hops))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// heapAlloc is the live heap after a collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runEngine takes one spec from bytes to final statistics through the
// entry points cmd/meshroute -scenario uses: scenario.Parse, Spec.Build,
// Runner.RunBuilt. A traced operation runs under the CPU profiler,
// timestamps every step through Runner.StepHook, counts the algorithm
// calls and times the metrics sink (when jsonl is set) through decorators,
// and reads the heap counters around the stepping loop.
func runEngine(e *env, runID string, specJSON []byte, v variant, jsonl string) (*engineOut, error) {
	out := &engineOut{}
	var err error
	if v != traced {
		err = out.run(nil, runID, specJSON, "")
	} else {
		before := heapAlloc()
		if perr := cpuByLayer(e.cpu, func() { err = out.run(e.tr, runID, specJSON, jsonl) }); perr != nil {
			return nil, perr
		}
		if after := heapAlloc(); after > before {
			out.heapBytes = after - before
		}
	}
	if err != nil {
		return nil, err
	}
	net := out.res.Net
	out.hops = net.Metrics.TotalHops
	out.digest = digestNet(net)
	if v == traced {
		out.delayP99 = delayP99(net)
	}
	// A kept network would sit in the next operation's resident set, and a
	// run's peak RSS would depend on how many operations fit into it.
	out.res.Net = nil
	return out, nil
}

// run is the timed part of runEngine; tr is nil unless the operation is
// traced.
func (out *engineOut) run(tr *tracer, runID string, specJSON []byte, jsonl string) error {
	t0 := time.Now()
	spec, err := scenario.Parse(specJSON)
	if err != nil {
		return err
	}
	t1 := time.Now()
	run, err := spec.Build()
	if err != nil {
		return err
	}
	t2 := time.Now()

	var runner scenario.Runner
	var root, exec int
	if tr != nil {
		root = tr.add(runID, spanRun, 0, t0, 0) // closed below
		exec = tr.add(runID, spanExecute, root, t2, 0)
		out.alg = &countedAlg{alg: run.NewAlg()}
		run.NewAlg = func() sim.Algorithm { return out.alg }
		if jsonl != "" {
			f, err := os.Create(jsonl)
			if err != nil {
				return err
			}
			defer f.Close()
			out.sink = &timedSink{jsonl: obs.NewJSONL(f)}
			runner.Sink = out.sink
		}
		prev := t2
		var sinkNs int64
		runner.StepHook = func(net *sim.Network, step int) {
			now := time.Now()
			id := tr.add(runID, spanStep, exec, prev, now.Sub(prev))
			if out.sink != nil {
				tr.add(runID, spanSink, id, prev, time.Duration(out.sink.ns-sinkNs))
				sinkNs = out.sink.ns
			}
			out.stepNs = append(out.stepNs, float64(now.Sub(prev)))
			prev = time.Now() // the bookkeeping above is the tracer's, not the step's
		}
	}

	var res *scenario.Result
	execute := func() {
		res, err = runner.RunBuilt(context.Background(), run)
		if err == nil && out.sink != nil {
			err = out.sink.jsonl.Close()
		}
	}
	if tr != nil {
		out.mallocs, out.bytes = memDelta(execute)
	} else {
		execute()
	}
	t3 := time.Now()
	if err != nil {
		return err
	}
	if res.Err != nil {
		return fmt.Errorf("run aborted: %w", res.Err)
	}
	out.res, out.parse, out.build, out.wall = res, t1.Sub(t0), t2.Sub(t1), t3.Sub(t0)
	if tr != nil {
		tr.add(runID, spanParse, root, t0, out.parse)
		tr.add(runID, spanBuild, root, t1, out.build)
		tr.close(exec, t3)
		tr.close(root, t3)
	}
	return nil
}

// specBytes renders the spec a variant submits: the invariant switch and
// the engine worker count are spec fields, and a traced operation hands
// the metrics file to its timing sink instead of naming it in the spec.
func specBytes(base scenario.Spec, v variant) ([]byte, error) {
	switch v {
	case traced:
		base.MetricsOut = ""
	case noInvariants:
		base.CheckInvariants = scenario.Bool(false)
	case workers2:
		base.Workers = 2
	}
	return base.JSON()
}

// engineRunner is the shared shape of static-torus and online-mesh.
type engineRunner struct {
	name  string
	spec  scenario.Spec
	warm  string
	extra func(e *env, r *engineRunner, plainOp, tracedOp *engineOut) error
}

func (r *engineRunner) warmDigest() string { return r.warm }
func (r *engineRunner) close()             {}

// setupEngine renders the warm-up spec, runs it once and checks it
// completed; the measured spec is only stored.
func setupEngine(e *env, name string, spec, warm scenario.Spec, extra func(*env, *engineRunner, *engineOut, *engineOut) error) (runner, error) {
	body, err := specBytes(warm, plain)
	if err != nil {
		return nil, err
	}
	out, err := runEngine(e, name+"/warm", body, plain, "")
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if st := out.res.Stats; !st.Online && (!st.Done || st.Delivered != st.Total) {
		return nil, fmt.Errorf("warm-up delivered %d of %d packets", st.Delivered, st.Total)
	}
	return &engineRunner{name: name, spec: spec, warm: out.digest, extra: extra}, nil
}

func (r *engineRunner) measure(e *env) error {
	variants := variantsFor(e)
	if e.trace {
		variants = append(variants, noInvariants)
		if runtime.GOMAXPROCS(0) >= 2 {
			variants = append(variants, workers2)
		}
	}
	var plainOp, tracedOp *engineOut
	ops, err := measureOps(e, variants, func(v variant, i int) (op, error) {
		body, err := specBytes(r.spec, v)
		if err != nil {
			return op{}, err
		}
		jsonl := ""
		if v == traced && r.spec.MetricsOut != "" {
			jsonl = r.spec.MetricsOut
		}
		out, err := runEngine(e, fmt.Sprintf("%s/%d", r.name, i), body, v, jsonl)
		if err != nil {
			return op{}, err
		}
		switch {
		case v == plain && plainOp == nil:
			plainOp = out
		case v == traced && tracedOp == nil:
			tracedOp = out
		}
		return out.op, nil
	})
	if err != nil {
		return err
	}

	// Exact simulated statistics, from the first plain operation. Every
	// other operation already had to reproduce its digest.
	st := plainOp.res.Stats
	e.pin("digest", plainOp.digest)
	e.pin("makespan", st.Makespan)
	e.pin("steps", st.Steps)
	e.pin("delivered", st.Delivered)
	e.pin("total", st.Total)
	e.pin("hops", plainOp.hops)
	e.pin("max_queue", st.MaxQueue)
	if st.Analyzed {
		e.pin("congestion", st.Congestion)
		e.pin("dilation", st.Dilation)
	}
	if st.Online {
		e.pin("admitted", st.Admitted)
		e.pin("refused", st.Refused)
	} else {
		e.out.check(st.Done && st.Delivered == st.Total, "delivered %d of %d packets", st.Delivered, st.Total)
	}
	e.out.check(st.MaxQueue <= r.spec.K, "queue of %d packets in a k=%d network", st.MaxQueue, r.spec.K)
	if !e.trace {
		return nil
	}

	// Per-layer metrics of the traced operation.
	L := e.out.layer
	tr := tracedOp
	stepTotal := sum(tr.stepNs)
	steps := float64(tr.res.Steps)
	hops := float64(tr.hops)
	shares(e.cpu, L)
	L["scenario.parse_us"] = float64(tr.parse.Nanoseconds()) / 1e3
	L["scenario.build_ms"] = tr.build.Seconds() * 1e3
	L["sim.step_ns_p50"] = median(tr.stepNs)
	L["sim.step_ns_p99"] = percentile(tr.stepNs, 0.99)
	L["sim.steps"] = steps
	L["sim.packet_hops"] = hops
	L["sim.ns_per_packet_hop"] = stepTotal / hops
	// The profiler's share of the traced wall time, spread over the calls
	// the decorator counted. The grid geometry the adapter calls once per
	// packet is grid's share, not dex's.
	L["dex.adapter_ns_per_call"] = L["dex.self_share"] * float64(tr.wall.Nanoseconds()) / float64(tr.alg.calls)
	L["routers.policy_ns_per_call"] = L["routers.self_share"] * float64(tr.wall.Nanoseconds()) / float64(tr.alg.calls)
	L["dex.calls_per_step"] = float64(tr.alg.calls) / steps
	L["sim.offers"] = float64(tr.alg.offers)
	L["sim.accept_ratio"] = float64(tr.alg.accepted) / float64(tr.alg.offers)
	L["sim.admitted"] = float64(st.Admitted)
	L["sim.refused"] = float64(st.Refused)
	L["sim.backlog_end"] = float64(st.Offered - st.Admitted - st.Dropped)
	L["sim.allocs_per_step"] = float64(tr.mallocs) / steps
	L["sim.bytes_per_step"] = float64(tr.bytes) / steps
	L["sim.bytes_per_node"] = float64(tr.heapBytes) / float64(r.spec.N*r.spec.N)
	if m := typical(ops, plain); m > 0 {
		L["sim.invariant_check_share"] = 1 - typical(ops, noInvariants)/m
		if w2 := typical(ops, workers2); w2 > 0 {
			L["sim.workers2_speedup"] = m / w2
		}
	}
	L["routers.makespan_steps"] = float64(st.Makespan)
	L["routers.max_queue"] = float64(st.MaxQueue)
	L["routers.throughput_pkts_per_step"] = float64(st.Delivered) / float64(st.Steps)
	return r.extra(e, r, plainOp, tracedOp)
}

// profitableNs times Topology.Profitable, the geometry call the dex
// adapter makes once per resident packet and offer.
func profitableNs(e *env, topo grid.Topology) float64 {
	perm := workload.Random(topo, e.seed).Pairs
	n := e.sz.microPairs
	var acc grid.DirSet
	t := time.Now()
	for i := 0; i < n; i++ {
		p := perm[i%len(perm)]
		acc |= topo.Profitable(p.Src, p.Dst)
	}
	d := time.Since(t)
	runtime.KeepAlive(acc)
	return float64(d.Nanoseconds()) / float64(n)
}

// delayP99 is the 99th-percentile time in system over delivered packets.
func delayP99(net *sim.Network) float64 {
	var delays []float64
	for _, p := range net.Packets() {
		if p.DeliverStep >= 0 {
			delays = append(delays, float64(p.DeliverStep-p.InjectStep))
		}
	}
	return percentile(delays, 0.99)
}

// static-torus: the dense step loop. Every node holds a packet from step
// 1, so sim, dex, routers and grid are all of the time.
func setupStaticTorus(e *env) (runner, error) {
	spec := func(n int) scenario.Spec {
		return scenario.Spec{
			Name: "static-torus", Topology: scenario.TopoTorus, N: n, K: 4, Router: "zigzag",
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: e.seed},
		}
	}
	return setupEngine(e, "static-torus", spec(e.sz.torusN), spec(e.sz.warmTorusN), staticTorusLayers)
}

func staticTorusLayers(e *env, r *engineRunner, plainOp, tracedOp *engineOut) error {
	L := e.out.layer
	topo := grid.NewSquareTorus(r.spec.N)
	L["grid.profitable_ns"] = profitableNs(e, topo)

	t := time.Now()
	perm := workload.Random(topo, e.seed)
	L["workload.permutation_ms"] = time.Since(t).Seconds() * 1e3

	// The run itself has analysis off; the yardstick is computed here, on
	// the same demand set, so the run's cd_ratio can be reported.
	demands := make([]analysis.Demand, len(perm.Pairs))
	for i, p := range perm.Pairs {
		demands[i] = analysis.Demand{Src: p.Src, Dst: p.Dst}
	}
	t = time.Now()
	cd := analysis.Analyze(topo, demands).Result()
	L["analysis.analyze_ms"] = time.Since(t).Seconds() * 1e3
	e.pin("congestion", cd.Congestion)
	e.pin("dilation", cd.Dilation)
	L["routers.cd_ratio"] = cd.Ratio(plainOp.res.Stats.Makespan)
	L["routers.delay_p99_steps"] = tracedOp.delayP99
	return nil
}

// online-mesh: the same engine used differently — many short sparse
// steps, streaming admission, the analyzer and the metrics encoder on
// every step. Open loop in simulated time.
func setupOnlineMesh(e *env) (runner, error) {
	spec := func(horizon int) scenario.Spec {
		return scenario.Spec{
			Name: "online-mesh", Topology: scenario.TopoMesh, N: e.sz.onlineN, K: 4, Router: "thm15",
			Analysis:   true,
			MetricsOut: filepath.Join(e.tmp, "online-mesh.jsonl"),
			Workload: scenario.Workload{
				Kind: scenario.KindOnline, Process: scenario.ProcessBernoulli, Admission: scenario.AdmissionRetry,
				// 1.92/n is 0.03 at n=64: about half the 4/n bisection limit.
				Rate: 1.92 / float64(e.sz.onlineN), Horizon: horizon, Seed: e.seed,
			},
		}
	}
	return setupEngine(e, "online-mesh", spec(e.sz.onlineHorizon), spec(e.sz.warmOnlineHorizon), onlineMeshLayers)
}

func onlineMeshLayers(e *env, r *engineRunner, plainOp, tracedOp *engineOut) error {
	L := e.out.layer
	st := plainOp.res.Stats
	topo := grid.NewSquareMesh(r.spec.N)
	L["grid.profitable_ns"] = profitableNs(e, topo)
	L["routers.cd_ratio"] = st.CDRatio
	L["routers.delay_p99_steps"] = st.DelayP99

	// The arrival process alone: drain a fresh source for the horizon.
	w := r.spec.Workload
	src := workload.NewBernoulli(topo.N(), w.Rate, w.Horizon, w.Seed)
	var buf []workload.Injection
	injections := 0
	t := time.Now()
	for step := 1; step <= w.Horizon; step++ {
		buf = src.Next(step, buf[:0])
		injections += len(buf)
	}
	L["workload.source_ns_per_injection"] = float64(time.Since(t).Nanoseconds()) / float64(injections)

	// The analyzer alone: a second, untimed drain of the same stream
	// collects the pairs, and a fresh accumulator admits them.
	src = workload.NewBernoulli(topo.N(), w.Rate, w.Horizon, w.Seed)
	pairs := make([]workload.Injection, 0, injections)
	for step := 1; step <= w.Horizon; step++ {
		pairs = src.Next(step, pairs)
	}
	acc := analysis.NewAccumulator(topo)
	t = time.Now()
	for _, p := range pairs {
		acc.Admit(p.Src, p.Dst)
	}
	L["analysis.admit_ns"] = float64(time.Since(t).Nanoseconds()) / float64(len(pairs))

	// The metrics layer: what the traced run's sink cost per step, and the
	// read side over the file it wrote.
	sink := tracedOp.sink
	L["obs.encode_ns_per_step"] = float64(sink.ns) / float64(sink.calls)
	info, err := os.Stat(r.spec.MetricsOut)
	if err != nil {
		return err
	}
	L["obs.bytes_per_step"] = float64(info.Size()) / float64(sink.calls)
	f, err := os.Open(r.spec.MetricsOut)
	if err != nil {
		return err
	}
	defer f.Close()
	t = time.Now()
	rec, err := obs.ReadJSONLRecords(f)
	if err != nil {
		return err
	}
	L["obs.read_mb_per_s"] = float64(info.Size()) / 1e6 / time.Since(t).Seconds()
	e.out.check(len(rec.Steps) == tracedOp.res.Steps && len(rec.Runs) == 1,
		"metrics file holds %d step and %d run records for a %d-step run", len(rec.Steps), len(rec.Runs), tracedOp.res.Steps)
	return nil
}
