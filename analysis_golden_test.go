package meshroute_test

import (
	"context"
	"testing"

	"meshroute"
	"meshroute/internal/scenario"
)

// TestGoldenScenariosCDInvariant runs every committed golden scenario
// with the analysis knob forced on and checks the congestion+dilation
// bounds of docs/ANALYSIS.md against the achieved makespan:
//
//   - D ≤ makespan always: a delivered packet needs at least its
//     src→dst distance in steps, and every golden scenario delivers the
//     packet realizing D.
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
			if st.Dilation > st.Makespan {
				t.Fatalf("dilation %d > makespan %d", st.Dilation, st.Makespan)
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

// scheduledGoldenCDBound pins the constant c of the offline baseline's
// makespan ≤ c·(C+D) contract over the golden corpus (same constant as
// the router's own unit tests).
const scheduledGoldenCDBound = 3

// TestScheduledBoundOnGoldenScenarios replays every static, fault-free
// golden scenario's workload under the "scheduled" offline baseline and
// asserts its O(C+D) contract: completion with makespan within
// scheduledGoldenCDBound·(C+D) of the analyzed workload. Dynamic
// scenarios are skipped (the router is offline and the scenario layer
// rejects them); k=1 scenarios run at k=2, the router's minimum for
// row-phase admission under its reserved-slot rule.
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
			cd := st.Congestion + st.Dilation
			if st.Makespan > scheduledGoldenCDBound*cd {
				t.Fatalf("makespan %d > %d·(C+D)=%d (C=%d D=%d)",
					st.Makespan, scheduledGoldenCDBound, scheduledGoldenCDBound*cd, st.Congestion, st.Dilation)
			}
		})
	}
}
