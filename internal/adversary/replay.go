package adversary

import (
	"cmp"
	"fmt"
	"slices"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Replay re-runs the constructed permutation from scratch — same placement
// order, final destinations, no exchanges — against a fresh instance of the
// algorithm, for exactly res.Steps steps, and verifies:
//
//   - Lemma 12: the resulting network configuration is identical to the
//     configuration at the end of the construction run (node states, packet
//     positions, packet states, queue tags, delivery times);
//   - Theorem 13: undelivered packets remain, so the algorithm needs more
//     than ⌊l⌋·d·n steps on this permutation.
//
// It returns the replay network, positioned after res.Steps steps, so the
// caller can keep running it to measure the total delivery time.
//
// For the farthest-first geometry the paper's argument is the row
// invariant rather than Lemma 10, since that router reads full distances;
// the configurations must still be equal.
func (c *Construction) Replay(res *Result, alg sim.Algorithm) (*sim.Network, error) {
	net := c.newNet()
	if err := c.place(net, res.Permutation); err != nil {
		return nil, err
	}
	for t := 0; t < res.Steps; t++ {
		if err := net.StepOnce(alg); err != nil {
			return nil, err
		}
	}
	if err := ConfigsEqual(res.Net, net); err != nil {
		return nil, fmt.Errorf("adversary: %v construction: Lemma 12 equivalence failed: %w", c.geometry, err)
	}
	if net.Done() {
		return nil, fmt.Errorf("adversary: %v construction: Theorem 13 failed: all packets delivered within %d steps", c.geometry, res.Steps)
	}
	return net, nil
}

// packetSig is the comparable description of one packet used for
// configuration equality: everything the model calls "configuration"
// (position, destination, state) plus the delivery record.
type packetSig struct {
	Src         grid.NodeID
	Dst         grid.NodeID
	At          grid.NodeID
	State       uint64
	QTag        uint8
	Arrived     grid.Dir
	ArrivedStep int32
	DeliverStep int32
}

// comparePacketSig orders descriptors by source, then destination, then the
// remaining fields, so that sorting puts equal multisets in equal order even
// where an h-h instance gives two packets the same source and destination.
func comparePacketSig(x, y packetSig) int {
	if c := cmp.Compare(x.Src, y.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(x.Dst, y.Dst); c != 0 {
		return c
	}
	return cmp.Or(
		cmp.Compare(x.At, y.At),
		cmp.Compare(x.State, y.State),
		cmp.Compare(x.QTag, y.QTag),
		cmp.Compare(x.Arrived, y.Arrived),
		cmp.Compare(x.ArrivedStep, y.ArrivedStep),
		cmp.Compare(x.DeliverStep, y.DeliverStep),
	)
}

// ConfigsEqual compares two networks' configurations: every node's state
// word and the full multiset of packet descriptors, read from the packet
// stores, with packets matched by source address (unique in a permutation
// instance). It returns a descriptive error on the first difference.
func ConfigsEqual(a, b *sim.Network) error {
	if a.Topo.N() != b.Topo.N() {
		return fmt.Errorf("different topologies")
	}
	sigs := func(net *sim.Network) []packetSig {
		st := &net.P
		out := make([]packetSig, 0, st.Len())
		for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
			out = append(out, packetSig{
				Src: st.Src[p], Dst: st.Dst[p], At: st.At[p], State: st.State[p],
				QTag: st.QTag[p], Arrived: st.Arrived[p], ArrivedStep: st.ArrivedStep[p],
				DeliverStep: st.DeliverStep[p],
			})
		}
		slices.SortFunc(out, comparePacketSig)
		return out
	}
	sa, sb := sigs(a), sigs(b)
	if len(sa) != len(sb) {
		return fmt.Errorf("packet counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			return fmt.Errorf("packet from %d differs: %+v vs %+v", sa[i].Src, sa[i], sb[i])
		}
	}
	for id := grid.NodeID(0); int(id) < a.Topo.N(); id++ {
		if a.Node(id).State != b.Node(id).State {
			return fmt.Errorf("node %v state differs: %d vs %d",
				a.Topo.CoordOf(id), a.Node(id).State, b.Node(id).State)
		}
	}
	return nil
}

// RunToCompletion continues a replayed network until every packet is
// delivered or maxSteps total steps have elapsed, returning the makespan
// (or maxSteps if undelivered packets remain, with done=false).
func RunToCompletion(net *sim.Network, alg sim.Algorithm, maxSteps int) (makespan int, done bool, err error) {
	if _, err := net.Run(nil, alg, maxSteps-net.Step(), nil); err != nil {
		return net.Step(), false, err
	}
	return net.Metrics.Makespan, net.Done(), nil
}

// HardPermutation runs the full pipeline for one algorithm: construction,
// replay verification, then completion measurement. It returns the
// constructed permutation, the Theorem 13 bound, and the measured delivery
// time (capped at maxSteps).
func HardPermutation(n, k int, algFactory func() sim.Algorithm, maxSteps int) (perm []workload.Pair, bound, makespan int, done bool, err error) {
	c, err := NewConstruction(n, k)
	if err != nil {
		return nil, 0, 0, false, err
	}
	res, err := c.Run(algFactory())
	if err != nil {
		return nil, 0, 0, false, err
	}
	replayNet, err := c.Replay(res, algFactory())
	if err != nil {
		return nil, 0, 0, false, err
	}
	makespan, done, err = RunToCompletion(replayNet, algFactory(), maxSteps)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return res.Permutation, res.Steps, makespan, done, nil
}
