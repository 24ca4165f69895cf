package dex

import (
	"testing"
	"testing/quick"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// roundtripPolicy is a dex policy that, on every callback, re-derives each
// resident's observable fields from the context's PacketID window and the
// store and checks the accessors agree — the index round-trip property:
// View(i) is exactly the projection of store row pids[i], pids[i] is the
// packet the engine will move when Schedule returns i, and Profitable(i) is
// what a fresh Topo.Profitable on the row's destination gives (computed here,
// so the oracle for the cached column is not the engine's own checker).
type roundtripPolicy struct {
	t *testing.T
	// pidOf pins the PacketID first observed for each external packet ID;
	// the handle must stay stable for the packet's whole lifetime.
	pidOf map[int32]sim.PacketID
	// bySrc finds an offered packet's row: the workload is a permutation,
	// so a source address names one packet.
	bySrc map[grid.NodeID]sim.PacketID
}

func (r *roundtripPolicy) Name() string { return "roundtrip" }

func (r *roundtripPolicy) verify(c *NodeCtx) {
	st := &c.net.P
	if c.Len() != len(c.pids) || c.Len() != c.node.Len() {
		r.t.Fatalf("step %d node %v: Len() = %d over %d packet IDs, node holds %d", c.Step, c.Coord(), c.Len(), len(c.pids), c.node.Len())
	}
	for i := range c.Len() {
		p := c.pids[i]
		if p == sim.NoPacket {
			r.t.Fatalf("step %d node %v: reserved sentinel in queue slot %d", c.Step, c.Coord(), i)
		}
		want := View{
			Index: i, Source: st.Src[p], State: st.State[p], Arrived: st.Arrived[p],
			ArrivedStep: int(st.ArrivedStep[p]), QTag: st.QTag[p],
			Profitable: c.net.Topo.Profitable(c.ID, st.Dst[p]),
		}
		if got := c.View(i); got != want {
			r.t.Fatalf("step %d node %v: View(%d) = %+v, store row %d says %+v", c.Step, c.Coord(), i, got, p, want)
		}
		if c.Profitable(i) != want.Profitable || c.PacketState(i) != want.State || c.Arrived(i) != want.Arrived ||
			c.ArrivedStep(i) != want.ArrivedStep || c.Source(i) != want.Source || c.QTag(i) != want.QTag {
			r.t.Fatalf("step %d node %v: accessors of resident %d disagree with View(%d)", c.Step, c.Coord(), i, i)
		}
		if prev, ok := r.pidOf[p.ID()]; ok && prev != p {
			r.t.Fatalf("packet %d changed handle %d -> %d: index not stable for lifetime", p.ID(), prev, p)
		}
		r.pidOf[p.ID()] = p
		r.bySrc[st.Src[p]] = p
	}
	if c.Coord() != c.net.Topo.CoordOf(c.ID) || c.Outlinks() != c.net.Topo.Outlinks(c.ID) ||
		c.Up() != c.Outlinks()&^c.net.DownOutlinks(c.ID) {
		r.t.Fatalf("step %d node %v: node header accessors diverged from topology/fault state", c.Step, c.Coord())
	}
	for tag := uint8(0); tag <= sim.OriginTag; tag++ {
		want := 0
		for _, p := range c.pids {
			if st.QTag[p] == tag {
				want++
			}
		}
		if c.QueueLen(tag) != want {
			r.t.Fatalf("step %d node %v: QueueLen(%d) = %d, %d residents carry the tag", c.Step, c.Coord(), tag, c.QueueLen(tag), want)
		}
	}
}

func (r *roundtripPolicy) InitNode(c *NodeCtx) { r.verify(c) }

func (r *roundtripPolicy) Schedule(c *NodeCtx) [grid.NumDirs]int {
	r.verify(c)
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	for i := range c.Len() {
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			if c.Profitable(i).Has(d) && sched[d] < 0 {
				sched[d] = i
				break
			}
		}
	}
	return sched
}

func (r *roundtripPolicy) Accept(c *NodeCtx, offers Offers, acc []bool) {
	r.verify(c)
	st := &c.net.P
	free := c.K - c.QueueLen(0)
	for i := range offers.Len() {
		// Every offered packet was a resident of From(i) at Schedule, so
		// verify has already recorded its row under its source.
		p := r.bySrc[offers.Source(i)]
		if p != offers.offs[i].P || st.At[p] != offers.From(i) || offers.Travel(i) != offers.offs[i].Travel ||
			offers.State(i) != st.State[p] {
			r.t.Fatalf("step %d node %v: offer %d does not match store row %d", c.Step, c.Coord(), i, p)
		}
		if want := c.net.Topo.Profitable(offers.From(i), st.Dst[p]); offers.Profitable(i) != want {
			r.t.Fatalf("step %d node %v: offer %d shows %v, measured fresh from the sender %v", c.Step, c.Coord(), i, offers.Profitable(i), want)
		}
		if free > 0 {
			acc[i] = true
			free--
		}
	}
}

func (r *roundtripPolicy) Update(c *NodeCtx) {
	r.verify(c)
	// Exercise the write-through path: SetPacketState must land in the
	// store row the accessors read.
	st := &c.net.P
	for i := range c.Len() {
		s := c.PacketState(i) + 1
		c.SetPacketState(i, s)
		if st.State[c.pids[i]] != s || c.View(i).State != s {
			r.t.Fatalf("SetPacketState did not write through to store row %d", c.pids[i])
		}
	}
}

// TestIndexRoundTripUnderFaultsAndCancellation is the property test for the
// index-based representation: across random workloads, seeded fault
// schedules (dropped sends, stalled nodes) and a mid-run pause/resume
// (cancellation), at every Schedule, Accept and Update call every accessor
// of the context round-trips to the store row behind it, the cached
// profitable set equals a fresh computation, and a packet's PacketID never
// changes.
func TestIndexRoundTripUnderFaultsAndCancellation(t *testing.T) {
	f := func(seedRaw uint16) bool {
		seed := int64(seedRaw)
		const n = 8
		topo := grid.NewSquareMesh(n)
		sched, err := fault.Generate(topo, fault.Config{
			Seed: seed, Horizon: 40,
			LinkFailures: 5, MeanDownSteps: 6,
			NodeStalls: 1, MeanStallSteps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		net := sim.MustNew(sim.Config{
			Topo: topo, K: 3, Queues: sim.CentralQueue,
			RequireMinimal: true, CheckInvariants: true, Faults: sched,
		})
		if err := workload.Random(topo, seed).Place(net); err != nil {
			t.Fatal(err)
		}
		pol := &roundtripPolicy{t: t, pidOf: map[int32]sim.PacketID{}, bySrc: map[grid.NodeID]sim.PacketID{}}
		alg := NewAdapter(pol)
		// Pause mid-run, then resume: the pause must not disturb the
		// index mapping (Run returns without error at the budget,
		// exactly like a cancelled runner stopping between steps). The
		// second leg is budgeted too — the round-trip policy is a
		// deliberately naive scheduler, not a livelock-free router, so
		// the property is index stability across the run, not delivery.
		if _, err := net.Run(nil, alg, 5, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := net.Run(nil, alg, 2000, nil); err != nil {
			t.Fatal(err)
		}
		// Closing the loop: the recorded handles still resolve to their
		// external IDs, delivered packets included.
		for id, p := range pol.pidOf {
			if p.ID() != id {
				t.Fatalf("handle %d resolves to external ID %d, recorded under %d", p, p.ID(), id)
			}
		}
		return len(pol.pidOf) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
