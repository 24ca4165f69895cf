package sim_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"meshroute"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// unsized hides a source's InjectionTrials, so AttachSource grows the
// packet store on demand, as it did for every open source before the
// store was reserved.
type unsized struct{ sim.Source }

// openProcesses builds every open arrival process the scenario layer
// attaches on an n×n mesh: the online kind's four processes, and the
// legacy burst kind (the legacy bernoulli kind is the Bernoulli source).
var openProcesses = map[string]func(topo grid.Topology, horizon int, seed int64) sim.Source{
	"bernoulli": func(topo grid.Topology, horizon int, seed int64) sim.Source {
		return workload.NewBernoulli(topo.N(), 0.1, horizon, seed)
	},
	"onoff": func(topo grid.Topology, horizon int, seed int64) sim.Source {
		return workload.NewOnOff(topo.N(), 0.2, 5, 7, horizon, seed)
	},
	"hotspot": func(topo grid.Topology, horizon int, seed int64) sim.Source {
		return workload.NewHotspot(topo, 3, 0.05, horizon, seed)
	},
	"transpose": func(topo grid.Topology, horizon int, seed int64) sim.Source {
		return workload.NewTransposeStream(topo, 0.1, horizon, seed)
	},
	"burst": func(topo grid.Topology, horizon int, _ int64) sim.Source {
		return workload.NewBurst(topo.N(), horizon)
	},
}

// attachRouter builds a network for the registry router on topo at k and
// attaches src under the policy.
func attachRouter(tb testing.TB, router string, topo grid.Topology, k int, src sim.Source, policy sim.AdmissionPolicy) (*sim.Network, sim.Algorithm) {
	tb.Helper()
	rs, err := meshroute.LookupRouter(router)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := sim.New(rs.Config(topo, k))
	if err != nil {
		tb.Fatal(err)
	}
	if err := net.AttachSource(src, policy); err != nil {
		tb.Fatal(err)
	}
	return net, rs.New()
}

// stepN runs exactly steps engine steps.
func stepN(tb testing.TB, net *sim.Network, alg sim.Algorithm, steps int) {
	tb.Helper()
	for range steps {
		if err := net.StepOnce(alg); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOnlineReservationIsABound runs every open arrival process under
// retry admission, where every injection becomes a packet, for 30 seeds
// and horizons at two sizes, with a central-queue and a per-inlink router.
// AttachSource reserves the packet store and placement list from the
// process's mean; after the horizon each must still have the capacity
// reserved: nothing regrew.
func TestOnlineReservationIsABound(t *testing.T) {
	for name, process := range openProcesses {
		for _, n := range []int{8, 16} {
			for seed := range int64(30) {
				router := []string{meshroute.RouterDimOrder, meshroute.RouterThm15}[seed%2]
				topo := grid.NewSquareMesh(n)
				horizon := 40 + int(seed)
				net, alg := attachRouter(t, router, topo, 2, process(topo, horizon, seed), sim.AdmitRetry)
				store, placed := sim.StoreCaps(net)
				stepN(t, net, alg, horizon)
				label := fmt.Sprintf("%s/n%d/seed%d/%s", name, n, seed, router)
				if got, gotPlaced := sim.StoreCaps(net); got != store || gotPlaced != placed {
					t.Errorf("%s: %d packets grew the store %d → %d, the placement list %d → %d",
						label, net.TotalPackets(), store, got, placed, gotPlaced)
				}
				if net.TotalPackets() == 0 || store <= 64 {
					t.Errorf("%s: %d packets in a store of %d: nothing was reserved", label, net.TotalPackets(), store)
				}
			}
		}
	}
}

// allocatedBy reports the fewest bytes the function allocates in three
// calls, which leaves out the runtime's own occasional allocations.
func allocatedBy(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestOnlineReservationAllocatesNoMore holds the two runs a reservation
// could make worse to what they allocate with the store growing on demand.
// Under drop admission, a refused injection never becomes a packet, so a
// drop run past the saturation knee (the committed n=64 spec's dimorder,
// k=4, rate 0.08, 200 steps) must not pay for a reservation. A horizon of
// 2⁴⁰ steps at rate 1 on a 64×64 mesh, of which 10 steps run, may
// allocate at most twice as much: the reservation is capped by the
// network, not by the horizon.
func TestOnlineReservationAllocatesNoMore(t *testing.T) {
	topo := grid.NewSquareMesh(64)
	for _, tc := range []struct {
		name     string
		src      func() sim.Source
		policy   sim.AdmissionPolicy
		steps    int
		maxRatio float64
	}{
		{"drop-n64-k4", func() sim.Source { return workload.NewBernoulli(topo.N(), 0.08, 200, 11) }, sim.AdmitDrop, 200, 1},
		{"retry-horizon-2^40", func() sim.Source { return workload.NewBernoulli(topo.N(), 1, 1<<40, 1) }, sim.AdmitRetry, 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(src sim.Source) func() {
				return func() {
					net, alg := attachRouter(t, meshroute.RouterDimOrder, topo, 4, src, tc.policy)
					stepN(t, net, alg, tc.steps)
					runtime.KeepAlive(net)
				}
			}
			reserved := allocatedBy(func() { run(tc.src())() })
			grown := allocatedBy(func() { run(unsized{tc.src()})() })
			ratio := float64(reserved) / float64(grown)
			t.Logf("%d steps: %d B with the reservation, %d B grown on demand: %.2f×", tc.steps, reserved, grown, ratio)
			if ratio > tc.maxRatio {
				t.Fatalf("allocated %.2f× what growing on demand does, want at most %g×", ratio, tc.maxRatio)
			}
		})
	}
}
