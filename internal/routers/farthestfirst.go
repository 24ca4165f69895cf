package routers

import (
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// DimOrderFF is dimension-order routing with the farthest-first outqueue
// policy: the next packet to advance in a dimension is the one with the
// farthest still to go in that dimension (Leighton, and Section 5 of the
// paper). It inspects full destination distances, so it is NOT
// destination-exchangeable — it implements sim.Algorithm directly — yet
// the Section 5 construction still forces Ω(n²/k) steps on it.
//
// The inqueue policy accepts while the central queue has room, preferring
// the offers that have farthest to go (ties broken by inlink order).
type DimOrderFF struct{}

// Name implements sim.Algorithm.
func (DimOrderFF) Name() string { return "dimorder-farthest-first" }

// InitNode implements sim.Algorithm.
func (DimOrderFF) InitNode(net *sim.Network, n *sim.Node) {}

// Update implements sim.Algorithm.
func (DimOrderFF) Update(net *sim.Network, n *sim.Node) {}

// remaining returns how far packet p still has to travel in the dimension
// of direction d, from node at coordinate c.
func remaining(net *sim.Network, c grid.Coord, p sim.PacketID, d grid.Dir) int {
	dc := net.Topo.CoordOf(net.P.Dst[p])
	if d.Horizontal() {
		return absInt(dc.X - c.X)
	}
	return absInt(dc.Y - c.Y)
}

// Schedule implements the farthest-first outqueue policy under dimension
// order: for each outlink, among the packets wanting it, pick the one with
// the farthest to go in that dimension.
func (DimOrderFF) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	best := [grid.NumDirs]int{}
	here := net.Topo.CoordOf(n.ID)
	for i, p := range net.PacketsOf(n) {
		want := net.P.Prof[p].DimOrder()
		if want == grid.NoDir {
			continue
		}
		r := remaining(net, here, p, want)
		if sched[want] < 0 || r > best[want] {
			sched[want] = i
			best[want] = r
		}
	}
	return sched
}

// Accept admits offers while the central queue has room, farthest first,
// with the same swap rule as the dex routers: an offer from a neighbor the
// node's own part (a) decision sends a packet toward is accepted
// unconditionally, because by symmetry that neighbor accepts ours and
// occupancy is unchanged.
func (DimOrderFF) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	free := net.K - net.QueueLen(n, 0)
	here := net.Topo.CoordOf(n.ID)
	for i, o := range offers {
		if n.Scheduled().Has(o.Travel.Opposite()) {
			acc[i] = true
		}
	}
	// Select remaining offers by decreasing remaining distance in their
	// travel dimension, reserving one slot for column-phase packets as in
	// the dex dimension-order routers (package policies).
	for free > 0 {
		bi, br := -1, -1
		for i, o := range offers {
			if acc[i] {
				continue
			}
			if o.Travel.Horizontal() && free <= 1 {
				continue // reserved slot stays vertical-only
			}
			if r := remaining(net, here, o.P, o.Travel); r > br {
				bi, br = i, r
			}
		}
		if bi < 0 {
			break
		}
		acc[bi] = true
		free--
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
