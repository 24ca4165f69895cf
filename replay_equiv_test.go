package meshroute_test

import (
	"fmt"
	"testing"

	"meshroute"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// TestReplayEquivalentToDirectPlacement is the Source-refactor equivalence
// property: running a static workload through the streaming path
// (Permutation.Place, now a step-0 Replay source behind the per-step
// admission phase) must reproduce the pre-refactor direct-placement run
// bit for bit — identical per-packet digests and identical run statistics.
// The direct net.Place loop below is the raw legacy entry point, unchanged
// by the refactor, so it is the ground truth.
func TestReplayEquivalentToDirectPlacement(t *testing.T) {
	cases := []struct {
		router string
		n, k   int
		seed   int64
	}{
		{"dimorder", 8, 2, 1},
		{"dimorder", 12, 4, 7},
		{"zigzag", 12, 3, 2},
		{"farthest-first", 8, 2, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s-n%d-k%d-seed%d", tc.router, tc.n, tc.k, tc.seed), func(t *testing.T) {
			rspec, err := meshroute.LookupRouter(tc.router)
			if err != nil {
				t.Fatal(err)
			}
			topo := grid.NewSquareMesh(tc.n)
			perm := workload.Random(topo, tc.seed)
			budget := 200 * (tc.n*tc.n/tc.k + 2*tc.n)

			direct := sim.MustNew(rspec.Config(topo, tc.k))
			for _, pr := range perm.Pairs {
				if err := direct.Place(direct.NewPacket(pr.Src, pr.Dst)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := direct.Run(nil, rspec.New(), budget, nil); err != nil {
				t.Fatal(err)
			}

			replayed := sim.MustNew(rspec.Config(topo, tc.k))
			if err := perm.Place(replayed); err != nil {
				t.Fatal(err)
			}
			if replayed.OpenWorkload() {
				t.Fatal("a step-0 replay must not register as an open workload")
			}
			if _, err := replayed.Run(nil, rspec.New(), budget, nil); err != nil {
				t.Fatal(err)
			}

			if dd, rd := digestNet(direct), digestNet(replayed); dd != rd {
				t.Errorf("digest drift: direct %s, replayed %s", dd, rd)
			}
			if a, b := direct.Metrics.Makespan, replayed.Metrics.Makespan; a != b {
				t.Errorf("makespan drift: direct %d, replayed %d", a, b)
			}
			if a, b := direct.Metrics.MaxQueueLen, replayed.Metrics.MaxQueueLen; a != b {
				t.Errorf("max queue drift: direct %d, replayed %d", a, b)
			}
			if a, b := direct.AvgDelay(), replayed.AvgDelay(); a != b {
				t.Errorf("avg delay drift: direct %v, replayed %v", a, b)
			}
			if a, b := direct.DeliveredCount(), replayed.DeliveredCount(); a != b {
				t.Errorf("delivered drift: direct %d, replayed %d", a, b)
			}
		})
	}
}

// TestReplayAtEquivalentToQueueInjection pins the lazy-materialization half
// of the refactor: a step-1 Replay source must reproduce the legacy
// QueueInjection path (packets pre-created before the run, drained from the
// same backlog) exactly, including h-h instances whose load exceeds the
// queue capacity and therefore exercises multi-step backlog draining.
func TestReplayAtEquivalentToQueueInjection(t *testing.T) {
	rspec, err := meshroute.LookupRouter("dimorder")
	if err != nil {
		t.Fatal(err)
	}
	const n, k = 8, 2
	topo := grid.NewSquareMesh(n)
	hh := workload.RandomHH(topo, 4, 9) // h=4 > k=2: forces backlog waits
	budget := 200 * (n*n/k + 2*n)

	legacy := sim.MustNew(rspec.Config(topo, k))
	for _, pr := range hh.Pairs {
		legacy.QueueInjection(legacy.NewPacket(pr.Src, pr.Dst), 1)
	}
	if _, err := legacy.Run(nil, rspec.New(), budget, nil); err != nil {
		t.Fatal(err)
	}

	streamed := sim.MustNew(rspec.Config(topo, k))
	if err := streamed.AttachSource(workload.ReplayAt(hh.Pairs, 1), sim.AdmitRetry); err != nil {
		t.Fatal(err)
	}
	if _, err := streamed.Run(nil, rspec.New(), budget, nil); err != nil {
		t.Fatal(err)
	}

	if ld, sd := digestNet(legacy), digestNet(streamed); ld != sd {
		t.Errorf("digest drift: legacy %s, streamed %s", ld, sd)
	}
	if a, b := legacy.Metrics.Makespan, streamed.Metrics.Makespan; a != b {
		t.Errorf("makespan drift: legacy %d, streamed %d", a, b)
	}
	if a, b := legacy.DeliveredCount(), streamed.DeliveredCount(); a != b {
		t.Errorf("delivered drift: legacy %d, streamed %d", a, b)
	}
}
