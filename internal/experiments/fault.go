package experiments

import (
	"errors"
	"fmt"

	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
)

// E15 measures delivery-time degradation under transient link failures:
// random permutations on the mesh routed by dimension order (fault-
// oblivious — its fixed paths must wait out every failure) versus the
// adaptive zigzag router in fault-aware mode (detours around failed links
// whenever a profitable outlink survives). Each cell averages several
// fault seeds; a livelock watchdog cuts wedged runs short, and runs are
// reported as delivered-fraction + mean makespan over the completed
// seeds. The fault model and the event stream it replays deterministically
// are documented in docs/ROBUSTNESS.md.
func E15(opts Options) (*Report, error) {
	rep := &Report{
		ID:    "E15",
		Title: "Fault degradation: dimension order vs fault-aware adaptive under transient link failures",
		Table: stats.NewTable("router", "n", "k", "failures", "seeds-done", "makespan", "base", "slowdown", "drops"),
	}
	const k = 3
	n := 24
	seeds := []int64{11, 12, 13}
	failureLevels := []int{0, 8, 16, 32, 64}
	if !opts.Quick {
		n = 32
		seeds = []int64{11, 12, 13, 14, 15}
		failureLevels = []int{0, 8, 16, 32, 64, 128}
	}
	budget := 40 * (n*n/k + 2*n)
	rep.Notes = []string{
		fmt.Sprintf("transient failures, mean outage %d steps, onsets uniform in [1,%d]; watchdog %d steps", n, 2*n, 20*n*n),
		"slowdown = mean makespan over completed seeds / same-router zero-failure baseline",
	}

	// Each cell averages one router over the seeds at one failure level.
	type cellIn struct {
		name, router string
		failures     int
	}
	var cells []cellIn
	for _, f := range [][2]string{{"dimorder", routers.NameDimOrder}, {"zigzag-fa", routers.NameZigZag}} {
		for _, fl := range failureLevels {
			cells = append(cells, cellIn{f[0], f[1], fl})
		}
	}
	type cellOut struct {
		done     int
		makespan float64
		drops    int
	}
	outs, err := sweep(opts, rep, cells, func(in cellIn) (cellOut, error) {
		var out cellOut
		sum := 0
		for _, seed := range seeds {
			// Onsets are drawn inside the fault-free delivery window
			// (makespan ≈ 2n for random permutations), so the failures
			// actually intersect the traffic instead of landing on a
			// drained network. Timing cells: the invariant checker
			// stays off so the watchdog, not the checker, bounds
			// wedged runs.
			res, err := opts.runSpec(&scenario.Spec{
				N: n, K: k, Router: in.router, FaultAware: in.router == routers.NameZigZag,
				CheckInvariants: scenario.Bool(false),
				Workload:        scenario.Workload{Kind: scenario.KindRandom, Seed: seed},
				Faults: &scenario.Faults{
					Seed: seed, Horizon: 2 * n,
					LinkFailures: in.failures, MeanDownSteps: n,
				},
				Watchdog: 20 * n * n,
				MaxSteps: budget,
			})
			var le *sim.LivelockError
			if err != nil && !errors.As(err, &le) {
				return out, fmt.Errorf("E15 %s failures=%d seed=%d: %w", in.name, in.failures, seed, err)
			}
			out.drops += res.Stats.FaultDrops
			if res.Stats.Done {
				out.done++
				sum += res.Stats.Makespan
			}
		}
		if out.done > 0 {
			out.makespan = float64(sum) / float64(out.done)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// The zero-failure cell of each family is its no-fault baseline.
	base := map[string]float64{}
	for i, out := range outs {
		if cells[i].failures == 0 && out.done > 0 {
			base[cells[i].name] = out.makespan
		}
	}
	for i, out := range outs {
		in := cells[i]
		slow := "n/a"
		if b := base[in.name]; b > 0 && out.done > 0 {
			slow = fmt.Sprintf("%.2fx", out.makespan/b)
		}
		rep.Table.AddRow(in.name, n, k, in.failures,
			fmt.Sprintf("%d/%d", out.done, len(seeds)), out.makespan, base[in.name], slow, out.drops)
	}
	return rep, nil
}
