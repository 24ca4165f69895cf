package meshroute_test

import (
	"context"
	"testing"

	"meshroute"
	"meshroute/internal/bounds"
	"meshroute/internal/grid"
	"meshroute/internal/scenario"
)

// TestGoldenScenariosCDInvariant runs every committed golden scenario
// with the analysis knob forced on and checks the congestion+dilation
// bounds of docs/ANALYSIS.md against the achieved makespan:
//
//   - D ≤ makespan always (bounds.Distance), D the analyzer's, which must
//     be the largest src→dst distance of the run's demand: a delivered
//     packet needs at least that many steps, and the online scenarios
//     that end with packets in flight run past their farthest one.
//   - C ≤ makespan for minimal routers on static workloads: every packet
//     follows some minimal path, and a directed edge carries at most one
//     packet per step, so the maximum edge load of the realized system —
//     which the analyzer's greedy C lower-bounds within the minimal
//     family it searches — needs that many distinct steps. Non-minimal
//     routers (hot-potato, stray-dimorder) and fault-rerouted runs can
//     spread load off the minimal family, and online runs accrue C over
//     a horizon longer than any single packet's residence, so only D is
//     checked there.
//
// The analyzer rides along without perturbing routing (the digest suite
// separately pins that analysis-off runs are bit-identical), so this is
// the max(D, C) ≤ makespan invariant of the golden corpus.
func TestGoldenScenariosCDInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden scenario")
	}
	for _, spec := range loadScenarios(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			s := *spec
			s.Analysis = true
			run, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			var r scenario.Runner
			res, err := r.RunBuilt(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("run aborted: %v", res.Err)
			}
			st := res.Stats
			if !st.Analyzed {
				t.Fatal("analysis knob on but stats not analyzed")
			}
			if st.Congestion <= 0 || st.Dilation <= 0 {
				t.Fatalf("degenerate analysis C=%d D=%d", st.Congestion, st.Dilation)
			}
			var demand []grid.Pair
			for _, p := range res.Net.Packets() {
				demand = append(demand, grid.Pair{Src: p.Src, Dst: p.Dst})
			}
			in := bounds.Instance{Topo: res.Net.Topo, Pairs: demand}
			if lo, _, _ := bounds.Distance.Bound(in); lo != st.Dilation {
				t.Fatalf("analyzer D=%d, the demand's largest distance %d", st.Dilation, lo)
			}
			if err := bounds.Check(in, st.Makespan, bounds.Distance); err != nil {
				t.Fatal(err)
			}
			rspec, rerr := meshroute.LookupRouter(s.Router)
			if rerr == nil && rspec.Minimal() && !s.Workload.Dynamic() && s.Faults == nil {
				if st.Congestion > st.Makespan {
					t.Fatalf("congestion %d > makespan %d on a minimal static run", st.Congestion, st.Makespan)
				}
			}
			if st.CDRatio <= 0 {
				t.Fatalf("cd_ratio %v not positive", st.CDRatio)
			}
		})
	}
}

// TestScheduledBoundOnGoldenScenarios replays every static, fault-free
// golden scenario's workload under the "scheduled" offline baseline and
// asserts its O(C+D) contract (bounds.Scheduled): completion with makespan
// within c·(C+D) of the analyzed workload. Dynamic
// scenarios are skipped (the router is offline and the scenario layer
// rejects them); k=1 scenarios run at k=2, the router's minimum for
// row-phase admission under its reserved-slot rule. For the same reason an
// h-h scenario runs at k >= h+1: its h packets a node must leave the
// reserved slot free at placement (at k = h it wedges: 628 of 768 packets
// of hh-zigzag-n16-k2-h3 are delivered).
func TestScheduledBoundOnGoldenScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden scenario")
	}
	for _, spec := range loadScenarios(t) {
		spec := spec
		if spec.Workload.Dynamic() || spec.Faults != nil {
			continue
		}
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			s := *spec
			s.Router = meshroute.RouterScheduled
			s.Analysis = true
			s.FaultAware = false
			s.Queues = scenario.QueuesCentral
			if s.K < 2 {
				s.K = 2
			}
			if s.Workload.Kind == scenario.KindHH && s.K <= s.Workload.H {
				s.K = s.Workload.H + 1
			}
			run, err := s.Build()
			if err != nil {
				t.Fatal(err)
			}
			var r scenario.Runner
			res, err := r.RunBuilt(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("run aborted: %v", res.Err)
			}
			st := res.Stats
			if !st.Done {
				t.Fatalf("scheduled incomplete: %d/%d delivered in %d steps", st.Delivered, st.Total, st.Steps)
			}
			in := bounds.Instance{Topo: res.Net.Topo, K: s.K, H: s.Workload.H, Pairs: res.Net.DeliveredPairs(), Congestion: st.Congestion}
			if err := bounds.Check(in, st.Makespan, bounds.Scheduled); err != nil {
				t.Fatalf("%v (C=%d D=%d)", err, st.Congestion, st.Dilation)
			}
		})
	}
}
