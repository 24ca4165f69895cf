package main

import (
	"fmt"
	"time"

	"meshroute"
	"meshroute/internal/adversary"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// The two workloads that run the paper's own results rather than a
// scenario: the Section 3 lower-bound construction and the Section 6
// (Theorem 34) O(n) algorithm.

const (
	spanConstruct = "adversary.Run"
	spanReplay    = "adversary.Replay"
	spanComplete  = "adversary.RunToCompletion"
	spanCLT       = "clt.Route"
)

// advOut is one pass of the lower-bound pipeline.
type advOut struct {
	op
	construct, replay, complete time.Duration
	bound, makespan, exchanges  int
	packets, steps              int
	maxQueue                    int
	done                        bool
	algs                        []*countedAlg // traced pass only
}

// runAdversary builds the Theorem 14 permutation against dimension-order
// routing, replays it (Lemma 12) and routes it to completion — the three
// calls meshroute.HardPermutation makes. The adversary drives the engine
// a third way: one StepOnce at a time with the exchange hook installed,
// on a mesh that is almost empty. A traced pass runs under the CPU
// profiler with counting decorators around the three algorithm instances.
func runAdversary(e *env, runID string, n, k int, v variant) (*advOut, error) {
	rs, err := meshroute.LookupRouter(meshroute.RouterDimOrder)
	if err != nil {
		return nil, err
	}
	out := &advOut{}
	newAlg := func() sim.Algorithm {
		if v != traced {
			return rs.New()
		}
		a := &countedAlg{alg: rs.New()}
		out.algs = append(out.algs, a)
		return a
	}
	var res *adversary.Result
	var net *sim.Network
	var t0, t1, t2, t3 time.Time
	pass := func() {
		t0 = time.Now()
		var c *adversary.Construction
		if c, err = meshroute.NewAdversary(n, k); err != nil {
			return
		}
		if res, err = c.Run(newAlg()); err != nil {
			return
		}
		t1 = time.Now()
		if net, err = c.Replay(res, newAlg()); err != nil {
			return
		}
		t2 = time.Now()
		// A destination-exchangeable router delivers every permutation;
		// 100 times the lower bound is a budget only a livelock reaches.
		out.makespan, out.done, err = adversary.RunToCompletion(net, newAlg(), 100*res.Steps)
		t3 = time.Now()
	}
	if v == traced {
		if perr := cpuByLayer(e.cpu, pass); perr != nil {
			return nil, perr
		}
	} else {
		pass()
	}
	if err != nil {
		return nil, err
	}

	out.construct, out.replay, out.complete, out.wall = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t3.Sub(t0)
	out.bound, out.exchanges = res.Steps, res.Exchanges
	out.packets = net.TotalPackets()
	out.steps = res.Steps + net.Step()
	out.hops = res.Net.Metrics.TotalHops + net.Metrics.TotalHops
	out.maxQueue = max(res.Net.Metrics.MaxQueueLen, net.Metrics.MaxQueueLen)
	out.digest = fmt.Sprintf("%d/%d/%d/%s", out.bound, out.makespan, out.exchanges, digestNet(net))
	if v == traced {
		root := e.tr.add(runID, spanRun, 0, t0, out.wall)
		e.tr.add(runID, spanConstruct, root, t0, out.construct)
		e.tr.add(runID, spanReplay, root, t1, out.replay)
		e.tr.add(runID, spanComplete, root, t2, out.complete)
	}
	return out, nil
}

type advRunner struct{ warm string }

func (r *advRunner) warmDigest() string { return r.warm }
func (r *advRunner) close()             {}

func setupAdversary(e *env) (runner, error) {
	out, err := runAdversary(e, "lowerbound-adversary/warm", e.sz.warmAdvN, e.sz.advK, plain)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if !out.done || out.makespan <= out.bound {
		return nil, fmt.Errorf("warm-up: makespan %d (done=%v) against bound %d", out.makespan, out.done, out.bound)
	}
	return &advRunner{warm: out.digest}, nil
}

func (r *advRunner) measure(e *env) error {
	var passes []*advOut
	ops, err := measureOps(e, variantsFor(e), func(v variant, i int) (op, error) {
		out, err := runAdversary(e, fmt.Sprintf("lowerbound-adversary/%d", i), e.sz.advN, e.sz.advK, v)
		if err != nil {
			return op{}, err
		}
		out.v = v
		passes = append(passes, out)
		return out.op, nil
	})
	if err != nil {
		return err
	}
	passes = passes[rssOps:] // passes[i] is now ops[i]
	first := passes[0]
	e.pin("digest", first.digest)
	e.pin("bound_steps", first.bound)
	e.pin("makespan", first.makespan)
	e.pin("exchanges", first.exchanges)
	e.pin("packets", first.packets)
	e.pin("hops", first.hops)
	// Theorem 13: the constructed permutation needs more than ⌊l⌋·d·n steps.
	e.out.check(first.done && first.makespan > first.bound,
		"makespan %d (done=%v) does not exceed the ⌊l⌋·d·n bound %d", first.makespan, first.done, first.bound)
	if !e.trace {
		return nil
	}

	L := e.out.layer
	var construct, replay, complete []float64
	var tr *advOut
	for i, p := range passes {
		if p.v == traced {
			if tr == nil {
				tr = p
			}
			continue
		}
		// The pass's three parts, on the clock measureOps calibrated for it.
		ms := ops[i].cal / p.wall.Seconds() * 1e3
		construct = append(construct, p.construct.Seconds()*ms)
		replay = append(replay, p.replay.Seconds()*ms)
		complete = append(complete, p.complete.Seconds()*ms)
	}
	L["adversary.construct_ms"] = steady(construct)
	L["adversary.replay_ms"] = steady(replay)
	L["adversary.complete_ms"] = steady(complete)
	L["adversary.exchanges"] = float64(first.exchanges)
	L["adversary.bound_steps"] = float64(first.bound)
	L["adversary.makespan_steps"] = float64(first.makespan)
	L["routers.makespan_steps"] = float64(first.makespan)
	L["routers.max_queue"] = float64(first.maxQueue)

	shares(e.cpu, L)
	var calls, offers, accepted int64
	for _, a := range tr.algs {
		calls += a.calls
		offers += a.offers
		accepted += a.accepted
	}
	wall := float64(tr.wall.Nanoseconds())
	L["dex.adapter_ns_per_call"] = L["dex.self_share"] * wall / float64(calls)
	L["routers.policy_ns_per_call"] = L["routers.self_share"] * wall / float64(calls)
	L["dex.calls_per_step"] = float64(calls) / float64(tr.steps)
	L["sim.steps"] = float64(tr.steps)
	L["sim.packet_hops"] = float64(tr.hops)
	L["sim.ns_per_packet_hop"] = wall / float64(tr.hops)
	L["sim.offers"] = float64(offers)
	L["sim.accept_ratio"] = float64(accepted) / float64(offers)
	return nil
}

// cltRunner's operation routes five permutations one after the other:
// three random ones, the transpose and the reversal.
type cltRunner struct {
	warm  string
	perms []*workload.Permutation
}

func (r *cltRunner) warmDigest() string { return r.warm }
func (r *cltRunner) close()             {}

func cltPerms(n int, seed int64) []*workload.Permutation {
	topo := grid.NewSquareMesh(n)
	return []*workload.Permutation{
		workload.Random(topo, seed), workload.Random(topo, seed+1), workload.Random(topo, seed+2),
		workload.Transpose(topo), workload.Reversal(topo),
	}
}

// pathHops is the link traversals a minimal router spends delivering the
// permutation: the sum of its source-destination distances. CLT and the
// sweeps' job statistics report no hop count of their own.
func pathHops(topo grid.Topology, perm *workload.Permutation) int {
	hops := 0
	for _, p := range perm.Pairs {
		hops += topo.Dist(p.Src, p.Dst)
	}
	return hops
}

func cltDigest(res *meshroute.CLTResult) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d", res.Packets, res.TimeFormula, res.TimeMeasured, res.MaxQueue, res.BaseCaseSteps, res.Iterations)
}

// setupCLT builds the five permutations and warms up on a random one and
// the transpose.
func setupCLT(e *env) (runner, error) {
	warm := ""
	for _, p := range cltPerms(e.sz.warmCLTN, e.seed)[2:4] {
		res, err := meshroute.RouteCLT(e.sz.warmCLTN, p, meshroute.CLTOptions{})
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm += cltDigest(res) + " "
	}
	return &cltRunner{warm: warm, perms: cltPerms(e.sz.cltN, e.seed)}, nil
}

func (r *cltRunner) measure(e *env) error {
	n := e.sz.cltN
	topo := grid.NewSquareMesh(n)
	hops := 0
	for _, perm := range r.perms {
		hops += pathHops(topo, perm)
	}
	var results []*meshroute.CLTResult // of the first operation
	var allocs, bytes []float64
	ops, err := measureOps(e, variantsFor(e), func(v variant, i int) (op, error) {
		out := make([]*meshroute.CLTResult, len(r.perms))
		var err error
		var wall time.Duration
		var t0 time.Time
		route := func() {
			t0 = time.Now()
			for p, perm := range r.perms {
				if out[p], err = meshroute.RouteCLT(n, perm, meshroute.CLTOptions{}); err != nil {
					return
				}
			}
			wall = time.Since(t0)
		}
		if v == traced {
			perr := cpuByLayer(e.cpu, func() {
				m, b := memDelta(route)
				allocs = append(allocs, float64(m)/float64(len(r.perms)))
				bytes = append(bytes, float64(b)/float64(len(r.perms)))
			})
			if perr != nil {
				return op{}, perr
			}
			e.tr.add(fmt.Sprintf("clt-theorem34/%d", i), spanCLT, 0, t0, wall)
		} else {
			route()
		}
		if err != nil {
			return op{}, err
		}
		digest := ""
		for _, res := range out {
			digest += cltDigest(res) + " "
		}
		if results == nil {
			results = out
		}
		return op{wall: wall, hops: hops, digest: digest}, nil
	})
	if err != nil {
		return err
	}
	maxQueue := 0
	for i, res := range results {
		key := fmt.Sprintf("perm%d.", i)
		e.pin(key+"packets", res.Packets)
		e.pin(key+"time_formula", res.TimeFormula)
		e.pin(key+"time_measured", res.TimeMeasured)
		e.pin(key+"max_queue", res.MaxQueue)
		// Theorem 34 and Lemma 28.
		e.out.check(res.TimeFormula <= 972*n && res.TimeMeasured <= res.TimeFormula,
			"permutation %d: schedule %d (measured %d) against the 972n = %d bound", i, res.TimeFormula, res.TimeMeasured, 972*n)
		e.out.check(res.MaxQueue <= 834, "permutation %d: %d packets in one node, Lemma 28 allows 834", i, res.MaxQueue)
		maxQueue = max(maxQueue, res.MaxQueue)
	}
	if !e.trace {
		return nil
	}
	L := e.out.layer
	shares(e.cpu, L)
	L["clt.route_ms"] = typical(ops, plain) / float64(len(r.perms)) * 1e3
	L["clt.allocs_per_route"] = median(allocs)
	L["clt.bytes_per_route"] = median(bytes)
	L["clt.steps_measured"] = float64(results[0].TimeMeasured)
	L["clt.max_queue"] = float64(maxQueue)
	return nil
}
