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
// by the refactor, so it is the ground truth. The h-h case (h=4 > k=2)
// overflows every queue at placement, so its packets wait in the step-0
// backlog and drain over several steps on both paths.
func TestReplayEquivalentToDirectPlacement(t *testing.T) {
	cases := []struct {
		router  string
		n, k, h int
		seed    int64
	}{
		{"dimorder", 8, 2, 0, 1},
		{"dimorder", 12, 4, 0, 7},
		{"zigzag", 12, 3, 0, 2},
		{"farthest-first", 8, 2, 0, 3},
		{"dimorder", 8, 2, 4, 9},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-n%d-k%d-seed%d", tc.router, tc.n, tc.k, tc.seed)
		if tc.h > 0 {
			name += fmt.Sprintf("-h%d", tc.h)
		}
		t.Run(name, func(t *testing.T) {
			rspec, err := meshroute.LookupRouter(tc.router)
			if err != nil {
				t.Fatal(err)
			}
			topo := grid.NewSquareMesh(tc.n)
			perm := workload.Random(topo, tc.seed)
			if tc.h > 0 {
				perm = workload.RandomHH(topo, tc.h, tc.seed)
			}
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
