package dex

import (
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

var fillSink *NodeCtx

// BenchmarkAdapterFill measures building one node's context — coordinate,
// outlinks and a profitable-outlink view per resident packet — for a full
// k=4 node of the 96×96 torus. The engine does this three times per
// occupied node per step (Schedule, Accept, Update), so it must stay
// 0 allocs/op.
func BenchmarkAdapterFill(b *testing.B) {
	topo := grid.NewSquareTorus(96)
	net := sim.MustNew(sim.Config{Topo: topo, K: 4, Queues: sim.CentralQueue})
	at := topo.ID(grid.XY(17, 80))
	for _, dst := range []grid.Coord{{X: 90, Y: 3}, {X: 17, Y: 32}, {X: 65, Y: 80}, {X: 2, Y: 81}} {
		net.MustPlace(net.NewPacket(at, topo.ID(dst)))
	}
	a, n := NewAdapter(&spyPolicy{}), net.Node(at)
	a.fill(net, n) // grow the view buffer once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fillSink = a.fill(net, n)
	}
}
