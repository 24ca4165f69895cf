package policies

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// StrayDimOrder is a destination-exchangeable router in the "Nonminimal
// extensions" class of Section 5: packets never move more than δ nodes
// beyond the rectangle spanned by their source and destination. It routes
// dimension order (horizontal first), and when a packet waiting to turn is
// blocked it may *overshoot* its turning column by up to δ columns in its
// original horizontal direction, sidestepping the congestion, then come
// back on (now profitable) links.
//
// The policy sees only profitable outlinks; the overshoot budget is kept in
// the packet state, updated from information the model allows (whether the
// packet moved, its profitable sets before and after) — so the router stays
// destination-exchangeable and falls under the Ω(n²/((δ+1)³k²)) bound.
type StrayDimOrder struct {
	// Delta is the stray budget δ >= 1.
	Delta int
}

// Name implements dex.Policy.
func (r StrayDimOrder) Name() string { return "stray-dimorder" }

// Packet state layout: bits 0..3 stray counter, bits 4..6 horizontal
// orientation (grid.Dir+1; 0 = unset).
const (
	strayCntMask  = 0xF
	strayDirShift = 4
	strayDirMask  = 0x7 << strayDirShift
)

func strayCount(s uint64) int { return int(s & strayCntMask) }

func strayOrient(s uint64) grid.Dir {
	v := (s & strayDirMask) >> strayDirShift
	if v == 0 {
		return grid.NoDir
	}
	return grid.Dir(v - 1)
}

func straySet(s uint64, cnt int, orient grid.Dir) uint64 {
	s &^= strayCntMask | strayDirMask
	s |= uint64(cnt) & strayCntMask
	if orient != grid.NoDir {
		s |= uint64(orient+1) << strayDirShift
	}
	return s
}

// InitNode records each origin packet's horizontal orientation (the
// horizontal profitable direction at its source; East for packets with
// none, so pure-vertical packets may still sidestep eastward).
func (r StrayDimOrder) InitNode(c *dex.NodeCtx) {
	for i := range c.Len() {
		orient := grid.East
		if c.Profitable(i).Has(grid.West) {
			orient = grid.West
		}
		c.SetPacketState(i, straySet(c.PacketState(i), 0, orient))
	}
}

// strayWant returns the i-th packet's deflection direction if it has budget:
// its original horizontal orientation, taken only when that direction is no
// longer profitable (i.e. the move overshoots).
func (r StrayDimOrder) strayWant(c *dex.NodeCtx, i int) grid.Dir {
	s := c.PacketState(i)
	o := strayOrient(s)
	if o == grid.NoDir || c.Profitable(i).Has(o) || strayCount(s) >= r.Delta || !c.Outlinks().Has(o) {
		return grid.NoDir
	}
	return o
}

// Schedule fills each outlink with the first packet wanting it; packets
// whose primary want lost the contest may take their stray direction if
// the outlink is still free.
func (r StrayDimOrder) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	// Primary wants, FIFO.
	for i := range c.Len() {
		if w := c.Profitable(i).DimOrder(); w != grid.NoDir && sched[w] < 0 {
			sched[w] = i
		}
	}
	// Deflections on leftover outlinks, FIFO among losers: a packet is
	// taken exactly when it is one of the (at most four) scheduled indices.
	for i := range c.Len() {
		if i == sched[0] || i == sched[1] || i == sched[2] || i == sched[3] {
			continue
		}
		if s := r.strayWant(c, i); s != grid.NoDir && sched[s] < 0 {
			sched[s] = i
		}
	}
	return sched
}

// Accept is round-robin with the swap rule (central queue).
func (r StrayDimOrder) Accept(c *dex.NodeCtx, offers dex.Offers, accept []bool) {
	acceptRoundRobin(c, offers, accept)
}

// Update maintains the stray counters: a move in the packet's orientation
// that was not profitable increments the counter (the packet is now past
// its destination column); a move against the orientation decrements it
// (coming back). Both are computable from the arrival direction and the
// current profitable set, information the model allows.
func (r StrayDimOrder) Update(c *dex.NodeCtx) {
	rotate(c)
	for i := range c.Len() {
		arrived := c.Arrived(i)
		if c.ArrivedStep(i) != c.Step || arrived == grid.NoDir {
			continue
		}
		state := c.PacketState(i)
		o := strayOrient(state)
		if o == grid.NoDir || !arrived.Horizontal() {
			continue
		}
		cnt := strayCount(state)
		switch arrived {
		case o:
			// Moving with the orientation: if the opposite is now
			// profitable, the move overshot the destination column.
			if c.Profitable(i).Has(o.Opposite()) {
				cnt++
			}
		case o.Opposite():
			// Coming back from an overshoot.
			if cnt > 0 {
				cnt--
			}
		}
		c.SetPacketState(i, straySet(state, cnt, o))
	}
}

var _ dex.Policy = StrayDimOrder{}
