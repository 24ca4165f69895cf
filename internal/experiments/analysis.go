package experiments

import (
	"fmt"

	"meshroute/internal/bounds"
	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/stats"
)

// E16 races the offline path-scheduled O(C+D) baseline (the "scheduled"
// router, docs/ANALYSIS.md) against the online minimal adaptive routers on
// the same workloads, with every cell normalized by the workload's
// congestion+dilation lower-bound scale: cd_ratio = makespan/(C+D). The
// scheduled router knows the whole demand set up front and replays a
// Rothvoß-style random-delay schedule, so its ratio pins what offline
// knowledge buys; the online routers' ratios show how far greedy
// per-step decisions land from that reference.
func E16(opts Options) (*Report, error) {
	rep := &Report{
		ID:    "E16",
		Title: "Offline O(C+D) baseline vs online routers, normalized by congestion+dilation (cd_ratio = makespan/(C+D))",
		Table: stats.NewTable("router", "n", "k", "workload", "C", "D", "makespan", "cd_ratio", "maxQ", "done"),
	}
	ns := []int{16, 32}
	if !opts.Quick {
		ns = []int{16, 32, 64}
	}
	const k = 2
	var cells []*scenario.Spec
	for _, n := range ns {
		for _, kind := range []string{scenario.KindTranspose, scenario.KindReversal, scenario.KindRandom} {
			for _, router := range []string{routers.NameScheduled, routers.NameDimOrder, routers.NameZigZag} {
				cells = append(cells, &scenario.Spec{Name: workloadName(kind), N: n, K: k, Router: router,
					Workload: scenario.Workload{Kind: kind, Seed: 3}, MaxSteps: 500 * n})
			}
		}
	}
	outs, err := sweep(opts, rep, cells, func(s *scenario.Spec) (scenario.RouteStats, error) {
		res, err := opts.runSpec(s)
		if err != nil {
			return scenario.RouteStats{}, err
		}
		st := res.Stats
		if !st.Analyzed {
			return st, fmt.Errorf("E16: %s on %s n=%d ran without analysis", s.Router, s.Name, s.N)
		}
		if s.Router == routers.NameScheduled && !st.Done {
			// The offline baseline's whole point is its completion
			// contract; an online router may stall at small k
			// (reversal strands zigzag at n≥32), which the done
			// column records instead.
			return st, fmt.Errorf("E16: scheduled incomplete on %s n=%d", s.Name, s.N)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	var worstScheduled float64
	for i, st := range outs {
		s := cells[i]
		rep.Table.AddRow(s.Router, s.N, k, s.Name, st.Congestion, st.Dilation,
			st.Makespan, st.CDRatio, st.MaxQueue, st.Done)
		if s.Router == routers.NameScheduled && st.CDRatio > worstScheduled {
			worstScheduled = st.CDRatio
		}
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"scheduled worst cd_ratio %.2f (its makespan ≤ c·(C+D) contract; c=%d is bounds.ScheduledC)", worstScheduled, bounds.ScheduledC))
	return rep, nil
}
