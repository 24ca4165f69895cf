package sim

import "fmt"

// checkNode and checkConservation are the invariant checker, enabled by
// Config.CheckInvariants. Part (e) calls checkNode on every occupied node
// before that node's Update, and checkConservation after the sweep:
//
//   - queue capacity: every queue's occupancy is within capOf(tag) — under
//     a central queue the node's whole resident count, under four inlink
//     queues each per-tag count (the origin buffer is unbounded);
//   - count consistency: on a four-inlink network each node's per-tag
//     counters sum to its resident packet count; under either model each
//     resident packet's At/slot index match the node and its queue
//     position;
//   - profitable-set cache: each resident packet's Prof entry equals a
//     fresh Topo.Profitable(At, Dst) — the column every router and the
//     engine's own minimality tests read instead of recomputing;
//   - packet conservation: delivered + resident + backlogged + pending
//     equals the number of packets ever placed or queued — packets are
//     never duplicated or lost by a step.
//
// An Update changes no queue, so the clauses read what they would before
// any Update; a violation returns after the Updates of the nodes before it.
//
// Minimality of moves is the remaining engine invariant; it is enforced
// inline at scheduling time by Config.RequireMinimal / Config.MaxStray
// (see scheduleNodes), where the offending move is still known.
//
// The checker allocates nothing and runs in O(occupied nodes + residents);
// when the flag is off the engine pays one branch per occupied node.
func (net *Network) checkNode(alg Algorithm, node *Node) error {
	id := node.ID
	st := &net.P
	if net.tagLen == nil {
		if c := node.Len(); c > net.K {
			return fmt.Errorf("sim: invariant: %s overflowed queue 0 of node %v (%d > %d) at step %d",
				alg.Name(), net.Topo.CoordOf(id), c, net.K, net.step)
		}
	} else {
		sum := 0
		for tag, c := range net.tagLen[id] {
			if c < 0 {
				return fmt.Errorf("sim: invariant: node %v queue %d has negative count %d after %s step %d",
					net.Topo.CoordOf(id), tag, c, alg.Name(), net.step)
			}
			if int(c) > net.capOf(uint8(tag)) {
				return fmt.Errorf("sim: invariant: %s overflowed queue %d of node %v (%d > %d) at step %d",
					alg.Name(), tag, net.Topo.CoordOf(id), c, net.capOf(uint8(tag)), net.step)
			}
			sum += int(c)
		}
		if sum != node.Len() {
			return fmt.Errorf("sim: invariant: node %v queue counters sum to %d but holds %d packets (step %d)",
				net.Topo.CoordOf(id), sum, node.Len(), net.step)
		}
	}
	for i, p := range net.PacketsOf(node) {
		if st.At[p] != id {
			return fmt.Errorf("sim: invariant: packet %d resident at node %v but At=%v (step %d)",
				p.ID(), net.Topo.CoordOf(id), net.Topo.CoordOf(st.At[p]), net.step)
		}
		if int(st.slot[p]) != i {
			return fmt.Errorf("sim: invariant: packet %d at queue position %d carries slot index %d (step %d)",
				p.ID(), i, st.slot[p], net.step)
		}
		if st.Delivered(p) {
			return fmt.Errorf("sim: invariant: delivered packet %d still resident at %v (step %d)",
				p.ID(), net.Topo.CoordOf(id), net.step)
		}
		if want := net.Topo.Profitable(id, st.Dst[p]); st.Prof[p] != want {
			return fmt.Errorf("sim: invariant: packet %d at %v caches profitable set %v, fresh computation gives %v (step %d)",
				p.ID(), net.Topo.CoordOf(id), st.Prof[p], want, net.step)
		}
	}
	return nil
}

// checkConservation checks packet conservation, given the resident count.
func (net *Network) checkConservation(resident int) error {
	if got := net.delivered + resident + net.backlogTotal + net.pendingTotal; got != net.total {
		return fmt.Errorf("sim: invariant: packet conservation violated at step %d: %d delivered + %d resident + %d backlogged + %d pending = %d, want %d",
			net.step, net.delivered, resident, net.backlogTotal, net.pendingTotal, got, net.total)
	}
	return nil
}
