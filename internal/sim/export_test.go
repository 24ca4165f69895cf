package sim

import "meshroute/internal/grid"

// NodeMarks reports the engine's per-node flag bits, and whether a packet
// resident at the node carries the departing mark, for the external tests
// of this package.
func NodeMarks(net *Network, id grid.NodeID) (occupied, offered, sent, departing bool) {
	node := &net.nodes[id]
	for _, p := range net.PacketsOf(node) {
		departing = departing || net.P.departing[p]
	}
	f := node.flags
	return f&nodeOccupied != 0, f&nodeOffered != 0, f&nodeSent != 0, departing
}
