package meshroute_test

import (
	"testing"

	"meshroute"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// TestTorusTranslationInvariant is metamorphic property (i): every node of
// a torus has the same outlinks and no dex policy reads Coord(), so
// translating every source and destination by (dx, dy) must translate the
// whole run. One random permutation on an 8×8 and a 12×12 torus is routed
// under every dex registry router that accepts a torus (dimorder, zigzag,
// thm15 and hot-potato; stray-dimorder's stray bound is a mesh rectangle),
// then again translated by each shift; every packet's InjectStep,
// DeliverStep and Hops, and the makespan, must be the untranslated run's.
func TestTorusTranslationInvariant(t *testing.T) {
	const k = 2
	for _, n := range []int{8, 12} {
		topo := grid.NewSquareTorus(n)
		pairs := workload.Random(topo, int64(n)).Pairs
		shifts := []grid.Coord{{X: 1}, {Y: 1}, {X: 3, Y: 5}, {X: n - 1, Y: n / 2}}
		routed := 0
		for _, name := range meshroute.RouterNames() {
			spec, err := meshroute.LookupRouter(name)
			if err != nil {
				t.Fatal(err)
			}
			if !spec.DestinationExchangeable() || spec.Config(nil, k).MaxStray > 0 {
				// The engine checks a stray bound against the mesh
				// rectangle, which a torus route across the seam leaves.
				continue
			}
			route := func(d grid.Coord) (*sim.Network, error) {
				net, err := sim.New(spec.Config(topo, k))
				if err != nil {
					return nil, err
				}
				shift := func(id grid.NodeID) grid.NodeID {
					c := topo.CoordOf(id)
					return topo.ID(grid.XY((c.X+d.X)%n, (c.Y+d.Y)%n))
				}
				for _, pr := range pairs {
					if err := net.Place(net.NewPacket(shift(pr.Src), shift(pr.Dst))); err != nil {
						return nil, err
					}
				}
				_, err = net.Run(nil, spec.New(), 100*n, nil)
				return net, err
			}
			base, err := route(grid.Coord{})
			if err != nil {
				t.Fatalf("%s on the %dx%d torus: %v", name, n, n, err)
			}
			if !base.Done() {
				t.Fatalf("%s on the %dx%d torus: not done after %d steps", name, n, n, base.Step())
			}
			routed++
			want := base.Packets()
			for _, d := range shifts {
				net, err := route(d)
				if err != nil {
					t.Fatalf("%s on the %dx%d torus shifted by %v: %v", name, n, n, d, err)
				}
				if net.Step() != base.Step() {
					t.Errorf("%s on the %dx%d torus shifted by %v: makespan %d, want %d", name, n, n, d, net.Step(), base.Step())
				}
				for i, p := range net.Packets() {
					w := want[i]
					if p.InjectStep != w.InjectStep || p.DeliverStep != w.DeliverStep || p.Hops != w.Hops {
						t.Fatalf("%s on the %dx%d torus shifted by %v: packet %d injected, delivered, hops %d, %d, %d, want %d, %d, %d",
							name, n, n, d, p.ID, p.InjectStep, p.DeliverStep, p.Hops, w.InjectStep, w.DeliverStep, w.Hops)
					}
				}
			}
		}
		if routed < 4 {
			t.Fatalf("%d dex routers routed the %dx%d torus, want 4", routed, n, n)
		}
	}
}
