package policies

import (
	"math/bits"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// HotPotato is a simple deterministic deflection ("hot potato") router: at
// every step each node forwards ALL packets it holds, assigning each packet
// a profitable outlink when one is free and deflecting it on any free
// outlink otherwise. Older packets (earlier injection, then earlier
// creation) choose first, which guarantees global progress: the oldest
// packet in the network always advances along a minimal path, so routing
// terminates.
//
// Hot potato routers take nonminimal paths. They are destination-
// exchangeable (the assignment uses only profitable outlinks and packet
// ages), which is exactly why Theorem 14 needs the minimality assumption:
// the paper notes that the O(n^{3/2}) deflection algorithm of Bar-Noy et
// al. is destination-exchangeable, so the restriction to minimal paths
// cannot be dropped. HotPotato plays that role as a runnable baseline.
//
// routers.HotPotatoConfig builds its network: the central queue of K = 4
// bounds the residents of a node at four while no fault holds a packet back.
type HotPotato struct{}

// Name implements dex.Policy.
func (HotPotato) Name() string { return "hot-potato" }

// InitNode implements dex.Policy.
func (HotPotato) InitNode(c *dex.NodeCtx) {}

// Update implements dex.Policy.
func (HotPotato) Update(c *dex.NodeCtx) {}

// Schedule forwards every resident packet: oldest packets pick their best
// profitable free outlink first; leftovers are deflected to any free
// outlink.
func (HotPotato) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	// Order packets oldest first by insertion; a fault can leave a node
	// more than four packets, so the buffers may grow.
	var obuf, lbuf [grid.NumDirs]int
	order := obuf[:0]
	for i := range c.Len() {
		order = append(order, i)
		j := i
		for ; j > 0 && c.Older(i, order[j-1]); j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
	free := c.Outlinks()
	left := lbuf[:0]
	// First pass: profitable outlinks, oldest first.
	for _, i := range order {
		if want := c.Profitable(i) & free; want != 0 {
			d := bits.TrailingZeros8(uint8(want))
			sched[d], free = i, free&^(1<<d)
		} else {
			left = append(left, i)
		}
	}
	// Second pass: deflect leftovers on any free outlink, oldest first.
	for _, i := range left {
		if free == 0 {
			break
		}
		d := bits.TrailingZeros8(uint8(free))
		sched[d], free = i, free&^(1<<d)
	}
	return sched
}

// Accept admits everything: deflection nodes forward all packets next
// step, so without faults the queue never exceeds the node degree.
func (HotPotato) Accept(c *dex.NodeCtx, offers dex.Offers, accept []bool) {
	for i := range accept {
		accept[i] = true
	}
}
