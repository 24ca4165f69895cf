package policies

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// Thm15 is the destination-exchangeable dimension-order router of
// Theorem 15. Each node has four incoming queues (one per inlink), each of
// size k; the network must therefore be built with sim.PerInlinkQueues.
//
//   - Outqueue policy: packets trying to go straight have priority,
//     resolving ties FIFO.
//   - Inqueue policy: the North and South queues (which hold packets
//     travelling vertically) always accept — the straight-priority rule
//     guarantees they always have room. The East and West queues accept a
//     packet exactly when they hold fewer than k packets at the beginning
//     of the step.
//
// Theorem 15: this router delivers any permutation in O(n²/k + n) steps,
// matching the Ω(n²/k) lower bound for destination-exchangeable dimension
// order routers.
type Thm15 struct{}

// Name implements dex.Policy.
func (Thm15) Name() string { return "thm15-dimorder-bounded" }

// InitNode implements dex.Policy.
func (Thm15) InitNode(c *dex.NodeCtx) {}

// Schedule gives each outlink to the packet wanting it that has the highest
// priority: going straight beats turning or injecting; FIFO breaks ties.
func (Thm15) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	straight := [grid.NumDirs]bool{}
	for i := range c.Len() {
		want := c.Profitable(i).DimOrder()
		if want == grid.NoDir {
			continue
		}
		goesStraight := c.Arrived(i) == want
		switch {
		case sched[want] < 0:
			sched[want] = i
			straight[want] = goesStraight
		case goesStraight && !straight[want]:
			// Straight priority preempts an earlier turning packet.
			sched[want] = i
			straight[want] = true
		}
	}
	return sched
}

// Accept always admits vertical traffic and admits horizontal traffic only
// if the target inqueue held fewer than k packets at the start of the step.
func (Thm15) Accept(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	for i := range offers.Len() {
		t := offers.Travel(i)
		acc[i] = !t.Horizontal() || c.QueueLen(uint8(t.Opposite())) < c.K
	}
}

// Update implements dex.Policy (the router is stateless).
func (Thm15) Update(c *dex.NodeCtx) {}

var _ dex.Policy = Thm15{}
