package experiments

import (
	"fmt"

	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
)

// E12 explores the dynamic setting the paper's introduction motivates
// ("particularly if one wants to generalize them to dynamic routing
// problems"): packets are injected continuously — each node sources a
// packet with probability λ per step, uniform destinations — and we
// measure the average delivery latency of the Theorem 15 router as the
// load approaches the mesh's bisection capacity.
//
// For uniform traffic on an n×n mesh, the bisection argument caps the
// sustainable rate at λ* = 4/n (λ·n²/2 packets per step must cross the
// 2n-link bisection on average... λ·n²·(n/2)·(1/2) crossings over 2n
// links gives λ ≤ 8/n; with dimension-order's single path per pair the
// practical knee sits near 4/n). The experiment shows flat latency below
// the knee and blow-up above it — the standard router saturation curve.
func E12(opts Options) (*Report, error) {
	n := 32
	warm := 4 * n
	horizon := 16 * n
	if !opts.Quick {
		n = 64
		horizon = 24 * n
		warm = 6 * n
	}
	rep := &Report{
		ID: "E12",
		Title: fmt.Sprintf("Dynamic routing: Theorem 15 router under Bernoulli injection (n=%d, k=2, %d steps)",
			n, horizon),
		Table: stats.NewTable("load λ·n/4", "rate λ", "offered", "delivered", "avg latency", "p95 delay", "thru/step", "refusal rate", "p. in flight @end"),
		Notes: []string{
			"latency is flat well below the bisection knee and grows sharply past it;",
			"refusal rate stays 0: per-inlink queues have an unbounded origin buffer, so admission pressure",
			"surfaces as the in-flight blow-up, not as refusals (contrast central-queue online scenarios);",
			"the Theorem 15 router needs no global synchronization, so it runs unchanged in the dynamic setting —",
			"the practicality axis the paper's Section 7 asks about",
		},
	}
	return table(opts, rep, []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2}, func(frac float64) ([]any, error) {
		lambda := frac * 4 / float64(n)
		res, err := opts.runSpec(&scenario.Spec{
			N: n, K: 2, Router: routers.NameThm15,
			Workload: scenario.Workload{
				Kind: scenario.KindOnline, Seed: 7, Rate: lambda, Horizon: horizon,
				Process: scenario.ProcessBernoulli, Admission: scenario.AdmissionRetry,
			},
		})
		if err != nil {
			return nil, err
		}
		sumLat, delivered := 0, 0
		ps := &res.Net.P
		for p := sim.PacketID(1); int(p) <= ps.Len(); p++ {
			if ps.Delivered(p) && int(ps.InjectStep[p]) > warm {
				sumLat += int(ps.DeliverStep[p] - ps.InjectStep[p])
				delivered++
			}
		}
		avg := 0.0
		if delivered > 0 {
			avg = float64(sumLat) / float64(delivered)
		}
		st := res.Stats
		return []any{frac, fmt.Sprintf("%.4f", lambda), st.Offered, st.Delivered, avg,
			st.DelayP95, fmt.Sprintf("%.2f", st.Throughput),
			fmt.Sprintf("%.3f", st.RefusalRate()), st.Total - st.Delivered}, nil
	})
}
