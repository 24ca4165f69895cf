package routers

import (
	"slices"
	"testing"

	"meshroute/internal/analysis"
	"meshroute/internal/bounds"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

func runScheduled(t *testing.T, topo grid.Topology, k int, perm *workload.Permutation, seed uint64, maxSteps int) (*sim.Network, *Scheduled) {
	t.Helper()
	alg := NewScheduled(seed)
	return runPerm(t, minimalCentral(topo, k), alg, perm, maxSteps), alg
}

// TestScheduledRoutesWithinCDBound routes structured and random
// workloads to completion and asserts the O(C+D) contract: makespan at
// least the largest distance and at most c·(C+D) (bounds.Distance and
// bounds.Scheduled), minimal paths, queues within k.
func TestScheduledRoutesWithinCDBound(t *testing.T) {
	type tc struct {
		name string
		topo grid.Topology
		perm *workload.Permutation
	}
	var cases []tc
	for _, n := range []int{4, 8, 12} {
		mesh := grid.NewSquareMesh(n)
		cases = append(cases,
			tc{name: "transpose", topo: mesh, perm: workload.Transpose(mesh)},
			tc{name: "reversal", topo: mesh, perm: workload.Reversal(mesh)},
		)
		for seed := int64(0); seed < 3; seed++ {
			cases = append(cases, tc{name: "random", topo: mesh, perm: workload.Random(mesh, seed)})
		}
		torus := grid.NewSquareTorus(n)
		cases = append(cases, tc{name: "torus-random", topo: torus, perm: workload.Random(torus, 9)})
	}
	for _, c := range cases {
		for _, k := range []int{2, 4} {
			n := c.topo.Width()
			net, alg := runScheduled(t, c.topo, k, c.perm, 0, 50*n*n)
			for _, p := range net.Packets() {
				if want := net.Topo.Dist(p.Src, p.Dst); p.Hops != want {
					t.Fatalf("%s n=%d k=%d: packet %d took %d hops, minimal is %d", c.name, n, k, p.ID, p.Hops, want)
				}
			}
			if net.Metrics.MaxQueueLen > k {
				t.Fatalf("%s n=%d k=%d: queue %d > k", c.name, n, k, net.Metrics.MaxQueueLen)
			}
			in := bounds.Instance{Topo: c.topo, K: k, Pairs: c.perm.Pairs, Congestion: alg.Result().Congestion}
			if err := bounds.Check(in, net.Metrics.Makespan, bounds.Scheduled, bounds.Distance); err != nil {
				t.Fatalf("%s n=%d k=%d: %v", c.name, n, k, err)
			}
		}
	}
}

// TestScheduledMatchesAnalyze asserts the router's precomputed system is
// exactly the analysis package's canonical system (same demands, same
// deterministic construction — the phased system it replays), and that
// its dilation agrees with the greedy-improved Analyze result (greedy
// rewrites never change path lengths).
func TestScheduledMatchesAnalyze(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	perm := workload.Transpose(topo)
	net, alg := runScheduled(t, topo, 2, perm, 0, 5000)
	_ = net
	want := analysis.AnalyzeCanonical(topo, perm.Pairs).Result()
	if got := alg.Result(); got != want {
		t.Fatalf("router system C=%d D=%d != canonical C=%d D=%d",
			got.Congestion, got.Dilation, want.Congestion, want.Dilation)
	}
	improved := analysis.Analyze(topo, perm.Pairs).Result()
	if improved.Dilation != want.Dilation {
		t.Fatalf("greedy dilation %d != canonical %d", improved.Dilation, want.Dilation)
	}
	if improved.Congestion > want.Congestion {
		t.Fatalf("greedy congestion %d > canonical %d", improved.Congestion, want.Congestion)
	}
}

// TestScheduledSeedsDiffer checks that the delay seed matters: on one
// random permutation, seeds 0, 1 and 2 deliver the packets at three
// different vectors of steps, and every seed still meets the C+D bound.
func TestScheduledSeedsDiffer(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	perm := workload.Random(topo, 3)
	var seen [][]int
	for seed := uint64(0); seed < 3; seed++ {
		net, alg := runScheduled(t, topo, 2, perm, seed, 5000)
		in := bounds.Instance{Topo: topo, K: 2, Pairs: perm.Pairs, Congestion: alg.Result().Congestion}
		if err := bounds.Check(in, net.Metrics.Makespan, bounds.Scheduled); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var steps []int
		for _, p := range net.Packets() {
			steps = append(steps, p.DeliverStep)
		}
		for prev, s := range seen {
			if slices.Equal(s, steps) {
				t.Errorf("seeds %d and %d deliver every packet at the same step", prev, seed)
			}
		}
		seen = append(seen, steps)
	}
}

// TestScheduledParallelEquivalence pins that the schedule is immutable
// shared state: a second network driven by the same Scheduled value,
// whose schedule the first run already built, reproduces the first run's
// outcome packet for packet.
func TestScheduledParallelEquivalence(t *testing.T) {
	topo := grid.NewSquareMesh(12)
	perm := workload.Random(topo, 11)
	outcome := func(alg *Scheduled) [][3]int {
		net := runPerm(t, minimalCentral(topo, 2), alg, perm, 20000)
		var out [][3]int
		for _, p := range net.Packets() {
			out = append(out, [3]int{int(p.ID), p.DeliverStep, p.Hops})
		}
		return out
	}
	shared := NewScheduled(0)
	first := outcome(shared)
	for run := 1; run <= 2; run++ {
		got := outcome(shared)
		if len(got) != len(first) {
			t.Fatalf("run %d: %d packets != first run %d", run, len(got), len(first))
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: packet %d outcome %v != first run %v", run, i, got[i], first[i])
			}
		}
	}
}
