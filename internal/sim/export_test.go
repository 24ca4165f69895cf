package sim

import "meshroute/internal/grid"

// NodeMarks reports the engine's per-node flag bits, for the external tests
// of this package.
func NodeMarks(net *Network, id grid.NodeID) (occupied, offered, sent bool) {
	f := net.nodes[id].flags
	return f&nodeOccupied != 0, f&nodeOffered != 0, f&nodeSent != 0
}
