package experiments

import (
	"fmt"

	"meshroute/internal/adversary"
	"meshroute/internal/routers"
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
	outs, err := sweep(opts, rep, ns, func(n int) (*adversary.Outcome, error) {
		c, err := adversary.NewConstruction(n, k)
		if err != nil {
			return nil, err
		}
		return c.Pipeline(opts.ctx(), router(routers.NameZigZag), 60*c.Par.Steps())
	})
	if err != nil {
		return nil, err
	}
	var xs, ys []float64
	for i, o := range outs {
		n := ns[i]
		rep.Table.AddRow(n, o.Steps, completion(o.Makespan, o.Done, 60*o.Steps),
			float64(o.Makespan)*float64(k*k)/float64(n*n),
			float64(o.Makespan)*float64(k)/float64(n*n))
		if o.Done {
			xs = append(xs, float64(n))
			ys = append(ys, float64(o.Makespan))
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
