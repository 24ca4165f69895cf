package experiments

import (
	"fmt"

	"meshroute/internal/adversary"
	"meshroute/internal/par"
	"meshroute/internal/stats"
)

// E14 probes the paper's first open problem: "Is there a matching
// O(n²/k²) bound for destination-exchangeable, minimal adaptive algorithms
// on the mesh?" The proven gap is Ω(n²/k²) (Theorem 14) vs O(n²/k)
// (Theorem 15, the best known dex upper bound). We measure how the
// adaptive zigzag router's completion time on its own constructed
// permutation actually scales, and report the growth exponent — an
// empirical data point, not an answer (the problem is open).
func E14(opts Options) (*Report, error) {
	k := 2
	ns := []int{120, 216, 312}
	if !opts.Quick {
		ns = []int{120, 216, 312, 432, 552}
	}
	rep := &Report{
		ID:    "E14",
		Title: fmt.Sprintf("Open problem 1: how does the adaptive router's hard-instance completion actually scale? (k=%d)", k),
		Table: stats.NewTable("n", "bound ⌊l⌋dn", "zigzag completion", "compl·k²/n²", "compl·k/n²"),
	}
	type out struct {
		bound, mk int
		done      bool
		skip      bool
	}
	outs, err := par.Map(len(ns), opts.Workers, func(i int) (out, error) {
		if opts.canceled() {
			return out{skip: true}, nil
		}
		n := ns[i]
		c, err := adversary.NewConstruction(n, k)
		if err != nil {
			return out{}, err
		}
		res, err := c.Pipeline(nil, zigzag, 60*c.Par.Steps())
		if err != nil {
			return out{}, err
		}
		return out{bound: res.Steps, mk: res.Makespan, done: res.Done}, nil
	})
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, o := range outs {
		if o.skip {
			return interrupted(rep), nil
		}
		n := ns[i]
		comp := fmt.Sprint(o.mk)
		if !o.done {
			comp = fmt.Sprintf(">%d", 60*o.bound)
		}
		rep.Table.AddRow(n, o.bound, comp,
			float64(o.mk)*float64(k*k)/float64(n*n),
			float64(o.mk)*float64(k)/float64(n*n))
		if o.done {
			xs = append(xs, float64(n))
			ys = append(ys, float64(o.mk))
		}
	}
	if _, bexp, err := stats.PowerFit(xs, ys); err == nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"completion growth exponent vs n at fixed k: %.2f (Ω(n²/k²) and O(n²/k) both predict 2 at fixed k;", bexp),
			"the k-dependence — n²/k² vs n²/k — is what the open problem asks and what small k cannot separate)")
	}
	rep.Notes = append(rep.Notes,
		"exploratory only: the instance is merely the one permutation Theorem 13 certifies, not the",
		"adaptive router's true worst case — the open problem remains open")
	return rep, nil
}
