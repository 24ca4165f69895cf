package experiments

import (
	"fmt"

	"meshroute"
	"meshroute/internal/adversary"
	"meshroute/internal/par"
	"meshroute/internal/scenario"
	"meshroute/internal/stats"
)

// E13 probes the third escape hatch of Section 7: randomness. The
// Theorem 14 adversary needs to predict every routing decision; against a
// router with randomized preferences it cannot even be run. We build the
// constructed permutation against the DETERMINISTIC zigzag router, then
// route it with the randomized variant across many seeds (in parallel —
// the cells are independent simulations).
func E13(opts Options) (*Report, error) {
	n, k := 120, 1
	seeds := 8
	if !opts.Quick {
		n = 216
		seeds = 16
	}
	rep := &Report{
		ID:    "E13",
		Title: fmt.Sprintf("Section 7 hatch 3: randomized routing vs the deterministic router's constructed permutation (n=%d, k=%d)", n, k),
		Table: stats.NewTable("router", "completion", "×bound", "done"),
	}
	if opts.canceled() {
		return interrupted(rep), nil
	}
	c, err := adversary.NewConstruction(n, k)
	if err != nil {
		return nil, err
	}
	// Deterministic zigzag: Theorem 13 applies.
	bound := c.Par.Steps()
	cap := 40 * bound
	res, err := c.Pipeline(nil, zigzag, cap)
	if err != nil {
		return nil, err
	}
	wl := scenario.Workload{Kind: scenario.KindPairs, Pairs: res.Permutation}
	rep.Table.AddRow("zigzag (deterministic, k=1)", res.Makespan, float64(res.Makespan)/float64(bound), res.Done)

	// Deterministic zigzag at the same k the randomized runs use, for an
	// apples-to-apples queue comparison.
	r4, err := opts.runSpec(&scenario.Spec{N: n, K: 4, Router: meshroute.RouterZigZag, Workload: wl, MaxSteps: cap})
	if err != nil {
		return nil, err
	}
	if r4.Canceled() {
		return interrupted(rep), nil
	}
	if r4.Err != nil {
		return nil, r4.Err
	}
	rep.Table.AddRow("zigzag (deterministic, k=4)", r4.Stats.Makespan,
		float64(r4.Stats.Makespan)/float64(bound), r4.Stats.Done)

	// Randomized zigzag, many seeds, in parallel.
	type cell struct {
		mk       int
		done     bool
		canceled bool
	}
	cells, err := par.Map(seeds, opts.Workers, func(i int) (cell, error) {
		if opts.canceled() {
			return cell{canceled: true}, nil
		}
		rres, err := opts.runSpec(&scenario.Spec{
			N: n, K: 4, Router: meshroute.RouterRandZigZag, Seed: uint64(i),
			Workload: wl, MaxSteps: cap,
		})
		if err != nil {
			return cell{}, err
		}
		if rres.Canceled() {
			return cell{canceled: true}, nil
		}
		if rres.Err != nil {
			return cell{}, rres.Err
		}
		return cell{mk: rres.Stats.Makespan, done: rres.Stats.Done}, nil
	})
	if err != nil {
		return nil, err
	}
	var samples []float64
	for i, cl := range cells {
		if cl.canceled {
			return interrupted(rep), nil
		}
		if i < 3 { // show a few seeds individually
			rep.Table.AddRow(fmt.Sprintf("rand-zigzag seed=%d", i), cl.mk, float64(cl.mk)/float64(bound), cl.done)
		}
		if cl.done {
			samples = append(samples, float64(cl.mk))
		}
	}
	if len(samples) > 0 {
		s := stats.Summarize(samples)
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"rand-zigzag over %d seeds (k=4): min %.0f, median %.0f, max %.0f (Theorem 13 bound %d)",
			s.N, s.Min, s.Median, s.Max, bound))
	}
	rep.Notes = append(rep.Notes,
		"the bound binds exactly the (algorithm, k) pair it was constructed for: the deterministic router",
		"at k=1 pays 4-5× the bound, while either randomizing the decisions or changing k steps outside the",
		"adversary's prediction and leaves only the instance's raw congestion (~2× bound here) —",
		"Theorem 14's determinism assumption, like its other assumptions, is load-bearing")
	return rep, nil
}
