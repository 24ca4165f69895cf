package sim_test

import (
	"math/rand"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
)

// FuzzExchangeDst drives a dex router on a random mesh or torus, with a
// central queue or per-inlink queues, from a random placement, under an
// exchange hook that swaps the destinations of random pairs of co-resident
// packets with equal profitable sets — Lemma 10's condition, so every
// scheduled move stays minimal — through ExchangeDst. Every step must pass
// the invariant checker, and every resident's cached Prof must equal a
// fresh Profitable(At, Dst) after it.
func FuzzExchangeDst(f *testing.F) {
	f.Add(int64(1), uint8(4), false, false, uint8(1), uint8(0))
	f.Add(int64(2), uint8(6), true, false, uint8(2), uint8(1))
	f.Add(int64(3), uint8(3), false, true, uint8(0), uint8(2))
	f.Add(int64(4), uint8(8), true, true, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, torus, perInlink bool, kRaw, routerRaw uint8) {
		n := 4 + int(nRaw)%9 // 4..12
		k := 1 + int(kRaw)%4 // 1..4
		var topo grid.Topology = grid.NewSquareMesh(n)
		if torus {
			topo = grid.NewSquareTorus(n)
		}
		var cfg sim.Config
		var policy dex.Policy
		switch {
		case perInlink:
			cfg, policy = routers.Thm15Config(topo, k), policies.Thm15{}
		case routerRaw%2 == 0:
			cfg, policy = sim.Config{Topo: topo, K: max(k, 2), RequireMinimal: true, CheckInvariants: true}, policies.DimOrderFIFO{}
		default:
			cfg, policy = sim.Config{Topo: topo, K: max(k, 3), RequireMinimal: true, CheckInvariants: true}, policies.ZigZag{}
		}
		net := sim.MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		// Up to two packets per node (the central queue's K is at least
		// 2), to random destinations, so some share a node from step 1.
		for id := grid.NodeID(0); int(id) < topo.N(); id++ {
			for c := rng.Intn(3); c > 0; c-- {
				net.MustPlace(net.NewPacket(id, grid.NodeID(rng.Intn(topo.N()))))
			}
		}
		st := &net.P
		swaps := 0
		net.SetExchange(func(net *sim.Network, step int, moves []sim.Move) {
			for id := grid.NodeID(0); int(id) < topo.N(); id++ {
				q := net.PacketsOf(net.Node(id))
				for i := range q {
					for j := i + 1; j < len(q); j++ {
						if st.Prof[q[i]] == st.Prof[q[j]] && rng.Intn(2) == 0 {
							net.ExchangeDst(q[i], q[j])
							swaps++
						}
					}
				}
			}
		})
		alg := dex.NewAdapter(policy)
		for budget := 8 * n * n; budget > 0 && !net.Done(); budget-- {
			if err := net.StepOnce(alg); err != nil {
				t.Fatalf("step %d after %d swaps: %v", net.Step(), swaps, err)
			}
			for id := grid.NodeID(0); int(id) < topo.N(); id++ {
				for _, p := range net.PacketsOf(net.Node(id)) {
					if want := topo.Profitable(id, st.Dst[p]); st.Prof[p] != want {
						t.Fatalf("step %d: packet %d at %v caches %v, fresh %v", net.Step(), p.ID(), topo.CoordOf(id), st.Prof[p], want)
					}
				}
			}
		}
	})
}
