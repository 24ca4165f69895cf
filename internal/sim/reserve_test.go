package sim_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"meshroute"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// reservedNames labels the entries of sim.ReservedCaps.
var reservedNames = [6]string{"moves", "arrivals", "next", "targets", "senders", "slots"}

// TestStaticReservationIsABound runs every registry router that accepts
// the instance, on a mesh and a torus, over random, transpose and reversal
// permutations, with and without a fault schedule, at a k below and a k
// above the first region size. A one-shot source reserves the step buffers
// and, under a central queue with k within the first region, the slot arena
// when it is attached; after the run, however it ended, each must still
// have the capacity reserved: no step grew one.
func TestStaticReservationIsABound(t *testing.T) {
	const n = 12
	perms := map[string]func(grid.Topology) *workload.Permutation{
		"random":    func(topo grid.Topology) *workload.Permutation { return workload.Random(topo, 1) },
		"transpose": workload.Transpose,
		"reversal":  workload.Reversal,
	}
	faults := fault.Config{Seed: 11, Horizon: 60, LinkFailures: 20, MeanDownSteps: 5, NodeStalls: 4, MeanStallSteps: 3}
	ran := map[sim.QueueModel]int{}
	for _, name := range meshroute.RouterNames() {
		rs, err := meshroute.LookupRouter(name)
		if err != nil {
			t.Fatal(err)
		}
		for topoName, topo := range map[string]grid.Topology{"mesh": grid.NewSquareMesh(n), "torus": grid.NewSquareTorus(n)} {
			for wl, perm := range perms {
				for _, faulty := range []bool{false, true} {
					for _, k := range []int{2, 5} {
						label := fmt.Sprintf("%s/%s/%s/faults=%v/k%d", name, topoName, wl, faulty, k)
						cfg := rs.Config(topo, k)
						newAlg := rs.New
						if faulty {
							if cfg.Faults, err = fault.Generate(topo, faults); err != nil {
								t.Fatal(err)
							}
							if rs.NewFaultAware != nil {
								newAlg = rs.NewFaultAware
							}
						}
						net, err := sim.New(cfg)
						if err != nil {
							continue // the router refuses this topology
						}
						if err := perm(topo).Place(net); err != nil {
							continue
						}
						reserved := sim.ReservedCaps(net)
						for i, c := range reserved[:3] {
							if c < n*n {
								t.Fatalf("%s: %s reserved %d, want at least the %d packets", label, reservedNames[i], c, n*n)
							}
						}
						_, runErr := net.Run(nil, newAlg(), 4*n*n, nil)
						got := sim.ReservedCaps(net)
						checked := len(got)
						if net.Queues != sim.CentralQueue || k > 4 {
							checked-- // this arena keeps growing on demand
						}
						for i := range checked {
							if got[i] != reserved[i] {
								t.Errorf("%s: %s grew from %d to %d (run ended with %v)", label, reservedNames[i], reserved[i], got[i], runErr)
							}
						}
						ran[net.Queues]++
					}
				}
			}
		}
	}
	if ran[sim.CentralQueue] == 0 || ran[sim.PerInlinkQueues] == 0 {
		t.Fatalf("runs per queue model %v: both models must be covered", ran)
	}
}

// TestStaticRunAllocatesNoMoreThanPlaced holds the static instances whose
// arena AttachSource leaves to grow on demand to the bytes the same run
// allocates when its packets are placed one by one with Place, which
// reserves only the packet store and leaves every other buffer to grow on
// demand: the reservation a one-shot source makes at attach time must
// never exceed what the run would have grown to. The sparse instance sends
// one packet from each of 1 % of the nodes of a 96×96 torus; the dense one
// is a 32×32 torus permutation at a k far above any queue's length, which
// must not size the arena.
func TestStaticRunAllocatesNoMoreThanPlaced(t *testing.T) {
	rs, err := meshroute.LookupRouter(meshroute.RouterZigZag)
	if err != nil {
		t.Fatal(err)
	}
	sparse := func(n int) []workload.Pair {
		rng := rand.New(rand.NewSource(1))
		var pairs []workload.Pair
		for _, src := range rng.Perm(n * n)[:n*n/100] {
			pairs = append(pairs, workload.Pair{Src: grid.NodeID(src), Dst: grid.NodeID(rng.Intn(n * n))})
		}
		return pairs
	}
	dense := func(n int) []workload.Pair { return workload.Random(grid.NewSquareTorus(n), 1).Pairs }
	for _, tc := range []struct {
		name  string
		n, k  int
		pairs func(n int) []workload.Pair
	}{
		{"sparse-n96-k4", 96, 4, sparse},
		{"dense-n32-k16M", 32, 1 << 24, dense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := grid.NewSquareTorus(tc.n)
			pairs := tc.pairs(tc.n)
			allocated := func(populate func(*sim.Network) error) uint64 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				net, err := sim.New(rs.Config(topo, tc.k))
				if err != nil {
					t.Fatal(err)
				}
				if err := populate(net); err != nil {
					t.Fatal(err)
				}
				if _, err := net.Run(nil, rs.New(), 10*tc.n*tc.n, nil); err != nil {
					t.Fatal(err)
				}
				if !net.Done() {
					t.Fatal("packets undelivered at the step budget")
				}
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(net)
				return after.TotalAlloc - before.TotalAlloc
			}
			attached := allocated(func(net *sim.Network) error {
				return net.AttachSource(workload.ReplayAt(pairs, 0), sim.AdmitRetry)
			})
			placed := allocated(func(net *sim.Network) error {
				net.ReserveInjections(len(pairs))
				for _, pr := range pairs {
					if err := net.Place(net.NewPacket(pr.Src, pr.Dst)); err != nil {
						return err
					}
				}
				return nil
			})
			t.Logf("%d packets: attached %d B, placed one by one %d B", len(pairs), attached, placed)
			if attached > placed {
				t.Fatalf("attaching the instance allocated %d B, placing it one by one %d B", attached, placed)
			}
		})
	}
}
