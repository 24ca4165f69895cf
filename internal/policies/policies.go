// Package policies holds the destination-exchangeable routers of the paper
// as dex.Policy values, run on the engine by dex.NewAdapter:
//
//   - DimOrderFIFO: dimension order, FIFO outqueue, round-robin inqueue —
//     the canonical example of Section 2.
//   - ZigZag: the minimal adaptive example of Section 2 — a packet moves in
//     one profitable direction until blocked, then alternates.
//   - Thm15: the dimension-order router of Theorem 15, with four incoming
//     queues of size k, straight priority and the O(n²/k + n) bound.
//   - StrayDimOrder: dimension order with a δ-column overshoot budget (the
//     nonminimal extension of Section 5).
//   - HotPotato: a deterministic deflection router — nonminimal, which is
//     why Theorem 14 needs the minimality assumption.
//
// Section 2 lets such a router read only node state and each packet's
// state, source and profitable outlinks. The package holds that by its
// shape: it imports only dex, grid and math/bits, so it cannot name the
// engine, and a policy value is plain configuration data with value
// receivers and no package variables, so all mutable state goes through
// NodeCtx.State and the packet state words. TestPoliciesArePlainData
// checks both.
package policies

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// acceptRoundRobin implements the round-robin inqueue policy of Section 2
// for a single central queue, extended with a "swap" rule that prevents
// head-on buffer deadlock:
//
//   - If this node scheduled a packet toward the sender of an offer, the
//     offer is accepted unconditionally. The existence of the offer proves
//     the sender scheduled toward us too, so by symmetry the sender accepts
//     our packet as well: both queues trade one packet and occupancy is
//     unchanged, which can never overflow.
//   - Remaining offers are accepted while there is room, rotating over
//     inlinks with the rotation position kept in the node state.
//
// Both rules use only node state, the node's own outqueue decision for this
// step (NodeCtx.Scheduled) and offered packets' visible fields, so the
// policy remains destination-exchangeable.
//
// The offers arrive on distinct inlinks (dex.Policy), so one pass applies
// the swap rule and files every other offer under its inlink, and the
// rotation reads that table.
func acceptRoundRobin(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	on := swapAndFile(c.Scheduled(), offers, acc)
	free := c.K - c.QueueLen(0)
	start := grid.Dir(*c.State % grid.NumDirs)
	for j := grid.Dir(0); j < grid.NumDirs && free > 0; j++ {
		if i := on[(start+j)%grid.NumDirs]; i >= 0 {
			acc[i] = true
			free--
		}
	}
}

// swapAndFile accepts the offers the swap rule admits, sched being the
// node's own scheduled outlinks, and returns for each inlink the index of
// the other offer arriving on it, or -1.
func swapAndFile(sched grid.DirSet, offers dex.Offers, acc []bool) [grid.NumDirs]int8 {
	on := [grid.NumDirs]int8{-1, -1, -1, -1}
	for i := range offers.Len() {
		if in := offers.Travel(i).Opposite(); !sched.Has(in) {
			on[in] = int8(i)
		} else {
			acc[i] = true // swap: our packet to them departs for sure
		}
	}
	return on
}

// rotate advances the round-robin counter stored in the node state.
func rotate(c *dex.NodeCtx) { *c.State = (*c.State + 1) % grid.NumDirs }

// acceptDimOrderReserving is the inqueue policy used by the dimension-order
// routers over a central queue. On top of the swap rule of
// acceptRoundRobin, it reserves one queue slot for vertically-travelling
// packets: an offer on the East or West inlink is accepted only if at least
// one slot would remain free afterwards.
//
// Under dimension order, vertical (column-phase) packets never turn back
// into a row, so their waiting chains run along a single column and end at
// a delivery or a free slot — with the reserved slot they always drain, and
// every node-buffer wait cycle (which necessarily mixes row and column
// segments) is broken. Head-on conflicts within a class are resolved by
// the swap rule. This keeps the k >= 2 central-queue router deadlock-free
// in practice; with k = 1 there is no slot to reserve and dimension-order
// central-queue routing can wedge, which is precisely why Theorem 15 moves
// to four per-inlink queues.
func acceptDimOrderReserving(c *dex.NodeCtx, offers dex.Offers, acc []bool) {
	on := swapAndFile(c.Scheduled(), offers, acc)
	occ := c.QueueLen(0)
	start := grid.Dir(*c.State % grid.NumDirs)
	for j := grid.Dir(0); j < grid.NumDirs; j++ {
		in := (start + j) % grid.NumDirs
		i := on[in]
		if i < 0 {
			continue
		}
		room := c.K
		if in.Horizontal() {
			room-- // keep one slot for vertical traffic
		}
		if occ < room {
			acc[i] = true
			occ++
		}
	}
}
