package experiments

import (
	"fmt"

	"meshroute"
	"meshroute/internal/adversary"
	"meshroute/internal/dex"
	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
)

// E10 runs the Section 5 "Nonminimal extensions" construction against a
// destination-exchangeable router that may stray up to δ beyond the
// source-destination rectangle (bound Ω(n²/((δ+1)³k²))).
func E10(opts Options) (*Report, error) {
	rep := &Report{
		ID:    "E10",
		Title: "Section 5: nonminimal extension — routers straying ≤ δ beyond the rectangle, Ω(n²/((δ+1)³k²))",
		Table: stats.NewTable("n", "k", "delta", "bound", "undeliv@bound", "exchanges"),
	}
	type cfg struct{ n, k, delta int }
	cfgs := []cfg{{120, 1, 0}, {480, 1, 1}}
	if !opts.Quick {
		cfgs = append(cfgs, cfg{960, 1, 1}, cfg{1500, 1, 2})
	}
	for _, tc := range cfgs {
		if opts.canceled() {
			return interrupted(rep), nil
		}
		c, err := adversary.NewDeltaConstruction(tc.n, tc.k, tc.delta)
		if err != nil {
			rep.Table.AddRow(tc.n, tc.k, tc.delta, "-", "-", fmt.Sprintf("(%v)", err))
			continue
		}
		alg := func() sim.Algorithm {
			return dex.NewAdapter(routers.StrayDimOrder{Delta: tc.delta})
		}
		res, err := c.Pipeline(nil, alg, 0)
		if err != nil {
			return nil, fmt.Errorf("E10 n=%d delta=%d: %w", tc.n, tc.delta, err)
		}
		rep.Table.AddRow(tc.n, tc.k, tc.delta, res.Steps, res.UndeliveredHard, res.Exchanges)
	}
	rep.Notes = append(rep.Notes,
		"delta=0 is Theorem 14; growing delta shrinks c, d and p's headroom by (δ+1) each — the (δ+1)³",
		"replay (Lemma 12 analogue) verified for every row")
	return rep, nil
}

// E11 demonstrates the quantifier order of Theorem 14 — ∀ algorithm
// ∃ permutation — by cross-routing each router's constructed permutation
// through the other routers: hardness is algorithm-specific.
func E11(opts Options) (*Report, error) {
	n, k := 120, 2
	if !opts.Quick {
		n = 216
	}
	rep := &Report{
		ID:    "E11",
		Title: fmt.Sprintf("Quantifier order: each constructed permutation vs every router (n=%d, k=%d)", n, k),
		Table: stats.NewTable("perm built for", "routed by", "bound", "completion", "×bound"),
	}
	type rt struct {
		name   string
		router string
		alg    func() sim.Algorithm
	}
	targets := []rt{
		{"dimorder", meshroute.RouterDimOrder, dimOrder},
		{"zigzag", meshroute.RouterZigZag, zigzag},
	}
	for _, builtFor := range targets {
		if opts.canceled() {
			return interrupted(rep), nil
		}
		c, err := adversary.NewConstruction(n, k)
		if err != nil {
			return nil, err
		}
		res, err := c.Run(builtFor.alg())
		if err != nil {
			return nil, err
		}
		wl := scenario.Workload{Kind: scenario.KindPairs, Pairs: res.Permutation}
		cap := 40 * res.Steps
		for _, router := range targets {
			rres, err := opts.runSpec(&scenario.Spec{N: n, K: k, Router: router.router, Workload: wl, MaxSteps: cap})
			if err != nil {
				return nil, err
			}
			if rres.Canceled() {
				return interrupted(rep), nil
			}
			if rres.Err != nil {
				return nil, rres.Err
			}
			comp := fmt.Sprint(rres.Stats.Makespan)
			ratio := float64(rres.Stats.Makespan) / float64(res.Steps)
			if !rres.Stats.Done {
				comp = fmt.Sprintf(">%d", cap)
				ratio = float64(cap) / float64(res.Steps)
			}
			rep.Table.AddRow(builtFor.name, router.name, res.Steps, comp, ratio)
		}
		// The Theorem 15 router (different queue model, not covered by
		// this instance's constants) for context.
		tres, err := opts.runSpec(&scenario.Spec{N: n, K: k, Router: meshroute.RouterThm15, Workload: wl, MaxSteps: cap})
		if err != nil {
			return nil, err
		}
		if tres.Canceled() {
			return interrupted(rep), nil
		}
		if tres.Err != nil {
			return nil, tres.Err
		}
		comp := fmt.Sprint(tres.Stats.Makespan)
		if !tres.Stats.Done {
			comp = fmt.Sprintf(">%d", cap)
		}
		rep.Table.AddRow(builtFor.name, "thm15 (4 queues)", res.Steps, comp,
			float64(tres.Stats.Makespan)/float64(res.Steps))
	}
	rep.Notes = append(rep.Notes,
		"a permutation constructed for router A is guaranteed hard only for A (Theorem 13's quantifiers);",
		"other routers may or may not route it faster — each has its own nemesis permutation")
	return rep, nil
}
