package policies

import (
	"meshroute/internal/dex"
	"meshroute/internal/grid"
)

// ZigZag is the minimal adaptive example sketched in Section 2 of the
// paper: "each packet moves in one profitable direction until it is blocked
// by congestion, and then moves in its other profitable direction,
// continuing this alternation until it reaches its destination."
//
// The packet's current preference is kept in the packet state (it is a
// legal destination-exchangeable state: it is initialized from the packet's
// profitable outlinks and updated from whether the packet moved). The
// inqueue policy is round-robin over a central queue, as in DimOrderFIFO.
// Being adaptive does not save it: Theorem 14 applies, and the constructed
// permutation forces Ω(n²/k²) steps.
type ZigZag struct {
	// FaultAware makes the router treat a failed profitable outlink like
	// a congestion block: the packet detours to its other profitable
	// direction while one survives. With FaultAware false (the default)
	// the router ignores link status entirely and behaves bit-identically
	// to the original Section 2 policy.
	FaultAware bool
}

// Name implements dex.Policy.
func (r ZigZag) Name() string {
	if r.FaultAware {
		return "zigzag-adaptive-fa"
	}
	return "zigzag-adaptive"
}

// avail is the outlink mask the router routes over: every direction when
// fault-oblivious, only up links when fault-aware.
func (r ZigZag) avail(c *dex.NodeCtx) grid.DirSet {
	if r.FaultAware {
		return c.Up()
	}
	return grid.AllDirs
}

// Packet state encoding: low 3 bits hold the preferred direction
// (grid.NoDir when unset).
const zzDirMask = 0x7

func zzPref(state uint64) grid.Dir { return grid.Dir(state & zzDirMask) }

func zzSetPref(state uint64, d grid.Dir) uint64 {
	return (state &^ zzDirMask) | uint64(d)
}

// zzWant returns the direction a packet in the given state wants this step,
// prof being its profitable outlinks already masked by avail: its preferred
// direction if still in prof, otherwise the first remaining one.
func zzWant(prof grid.DirSet, state uint64) grid.Dir {
	if p := zzPref(state); p < grid.NumDirs && prof.Has(p) {
		return p
	}
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if prof.Has(d) {
			return d
		}
	}
	return grid.NoDir
}

// InitNode seeds each origin packet's preference with its first profitable
// direction.
func (r ZigZag) InitNode(c *dex.NodeCtx) {
	avail := r.avail(c)
	for i := range c.Len() {
		s := c.PacketState(i)
		c.SetPacketState(i, zzSetPref(s, zzWant(c.Profitable(i)&avail, s)))
	}
}

// Schedule sends, on each outlink, the earliest-queued packet that wants it.
func (r ZigZag) Schedule(c *dex.NodeCtx) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	avail := r.avail(c)
	for i := range c.Len() {
		want := zzWant(c.Profitable(i)&avail, c.PacketState(i))
		if want != grid.NoDir && sched[want] < 0 {
			sched[want] = i
		}
	}
	return sched
}

// Accept implements the round-robin inqueue policy with the swap rule.
func (r ZigZag) Accept(c *dex.NodeCtx, offers dex.Offers, accept []bool) {
	acceptRoundRobin(c, offers, accept)
}

// Update flips the preference of every packet that failed to move this step
// (the "blocked by congestion" alternation) and records the preference of
// packets that just arrived. Fault-aware, a down profitable outlink is
// excluded throughout, so a block on a failed link alternates the packet
// exactly like a congestion block.
func (r ZigZag) Update(c *dex.NodeCtx) {
	rotate(c)
	avail := r.avail(c)
	for i := range c.Len() {
		prof := c.Profitable(i) & avail
		state := c.PacketState(i)
		moved := c.ArrivedStep(i) == c.Step && c.Arrived(i) != grid.NoDir
		pref := zzPref(state)
		if moved {
			// Keep going the way it was going if still profitable.
			if !prof.Has(pref) {
				c.SetPacketState(i, zzSetPref(state, zzWant(prof, state)))
			}
			continue
		}
		// Blocked: alternate to the other profitable direction if the
		// packet has two.
		if prof.Count() == 2 {
			for d := grid.Dir(0); d < grid.NumDirs; d++ {
				if prof.Has(d) && d != pref {
					c.SetPacketState(i, zzSetPref(state, d))
					break
				}
			}
		} else if !prof.Has(pref) {
			c.SetPacketState(i, zzSetPref(state, zzWant(prof, state)))
		}
	}
}

var _ dex.Policy = ZigZag{}
