package policies

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// DimOrderFIFO is the dimension-order routing algorithm with FIFO outqueue
// policy and round-robin inqueue policy over a central queue of capacity k.
// A packet first exhausts its horizontal profitable direction, then its
// vertical one; since this preference is computable from profitable
// outlinks alone, the algorithm is destination-exchangeable and falls under
// the Ω(n²/k) lower bound of Section 5 (and the Ω(n²/k²) bound of
// Theorem 14).
type DimOrderFIFO struct{}

// Name implements dex.Policy.
func (DimOrderFIFO) Name() string { return "dimorder-fifo" }

// InitNode implements dex.Policy.
func (DimOrderFIFO) InitNode(c *dex.NodeCtx) {}

// Schedule implements the FIFO outqueue policy: for each outlink, the
// earliest-queued packet wanting it.
func (DimOrderFIFO) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	for i := range c.Len() {
		want := c.Profitable(i).DimOrder()
		if want != grid.NoDir && sched[want] < 0 {
			sched[want] = i
		}
	}
	return sched
}

// Accept implements the round-robin inqueue policy with the swap rule and
// a reserved slot for column-phase packets (see acceptDimOrderReserving).
func (r DimOrderFIFO) Accept(c *dex.NodeCtx, offers dex.Offers, accept []bool) {
	acceptDimOrderReserving(c, offers, accept)
}

// Update advances the round-robin counter.
func (DimOrderFIFO) Update(c *dex.NodeCtx) { rotate(c) }

var _ dex.Policy = DimOrderFIFO{}
