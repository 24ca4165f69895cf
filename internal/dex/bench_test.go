package dex_test

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
)

// nodeStep returns one node's share of a step as the engine drives it
// through the adapter: Schedule, Accept (two offers, from the west and the
// south neighbour) and Update of a full k=4 zigzag node of the 96×96 torus,
// the static-torus workload's steady state.
func nodeStep() func() {
	topo := grid.NewSquareTorus(96)
	net := sim.MustNew(sim.Config{Topo: topo, K: 4, Queues: sim.CentralQueue})
	at := topo.ID(grid.XY(17, 80))
	for _, dst := range []grid.Coord{{X: 90, Y: 3}, {X: 17, Y: 32}, {X: 65, Y: 80}, {X: 2, Y: 81}} {
		net.MustPlace(net.NewPacket(at, topo.ID(dst)))
	}
	west, south := topo.ID(grid.XY(16, 80)), topo.ID(grid.XY(17, 79))
	offers := []sim.Offer{
		{P: net.NewPacket(west, topo.ID(grid.XY(40, 80))), From: west, Travel: grid.East},
		{P: net.NewPacket(south, topo.ID(grid.XY(17, 90))), From: south, Travel: grid.North},
	}
	for _, o := range offers {
		net.MustPlace(o.P)
	}
	a, n, acc := dex.NewAdapter(policies.ZigZag{}), net.Node(at), make([]bool, len(offers))
	a.InitNode(net, n)
	return func() {
		a.Schedule(net, n)
		acc[0], acc[1] = false, false
		a.Accept(net, n, offers, acc)
		a.Update(net, n)
	}
}

// BenchmarkAdapterNodeStep measures what the dex boundary and the policy
// cost per occupied node per step (see nodeStep).
func BenchmarkAdapterNodeStep(b *testing.B) {
	step := nodeStep()
	step() // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestAdapterNodeStepAllocs pins the benchmark's 0 allocs/op.
func TestAdapterNodeStepAllocs(t *testing.T) {
	step := nodeStep()
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("one node's Schedule+Accept+Update allocates %.1f times, want 0", avg)
	}
}
