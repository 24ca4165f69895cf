package routers

import (
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// RandZigZag is the minimal adaptive alternation router with *randomized*
// direction preferences — the third escape hatch of Section 7
// ("incorporate randomness in routing decisions"). Theorem 14 only covers
// deterministic algorithms: its adversary must predict every choice to
// build the constructed permutation. Randomizing the preference (here via
// a seeded SplitMix64 stream, so runs remain reproducible) breaks that
// prediction: a permutation constructed against the deterministic router
// has no special power over the randomized one beyond its raw congestion.
//
// The router is minimal and uses only profitable outlinks plus the random
// word, so it is the minimal change to ZigZag that steps outside the
// deterministic model.
type RandZigZag struct {
	// Seed selects the random stream.
	Seed uint64
	// FaultAware excludes currently-failed outlinks from the profitable
	// set before the random draw, so packets detour around link failures
	// while a profitable outlink survives. False (the default) reproduces
	// the fault-oblivious router bit for bit.
	FaultAware bool
}

// Name implements sim.Algorithm.
func (r RandZigZag) Name() string {
	if r.FaultAware {
		return "rand-zigzag-fa"
	}
	return "rand-zigzag"
}

// InitNode implements sim.Algorithm.
func (r RandZigZag) InitNode(net *sim.Network, n *sim.Node) {}

// Update implements sim.Algorithm.
func (r RandZigZag) Update(net *sim.Network, n *sim.Node) {}

// splitmix64 is the standard 64-bit mix, used as a stateless hash of
// (seed, packet, step) into a uniform word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pick returns the desired direction of packet p this step: a uniformly
// random profitable direction.
func (r RandZigZag) pick(net *sim.Network, at grid.NodeID, p sim.PacketID) grid.Dir {
	prof := net.P.Prof[p]
	if r.FaultAware {
		prof &^= net.DownOutlinks(at)
	}
	dirs := prof.Dirs()
	switch len(dirs) {
	case 0:
		return grid.NoDir
	case 1:
		return dirs[0]
	}
	// Hash the external packet ID (PacketID-1), not the store index, so the
	// decision stream is bit-identical to the pointer-based engine's.
	h := splitmix64(r.Seed ^ uint64(p.ID())*0x9e3779b97f4a7c15 ^ uint64(net.Step())<<32)
	return dirs[h%uint64(len(dirs))]
}

// Schedule sends, on each outlink, the earliest-queued packet that wants
// it this step.
func (r RandZigZag) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	for i, p := range net.PacketsOf(n) {
		if w := r.pick(net, n.ID, p); w != grid.NoDir && sched[w] < 0 {
			sched[w] = i
		}
	}
	return sched
}

// Accept admits while there is room, plus the occupancy-neutral swap rule:
// an offer is taken when the node's own part (a) decision sends a packet
// back out the link it comes in on.
func (r RandZigZag) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	for i, o := range offers {
		if n.Scheduled().Has(o.Travel.Opposite()) {
			acc[i] = true
		}
	}
	free := net.K - net.QueueLen(n, 0)
	for i := range offers {
		if acc[i] {
			continue
		}
		if free > 0 {
			acc[i] = true
			free--
		}
	}
}
