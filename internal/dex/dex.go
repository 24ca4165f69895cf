// Package dex is the destination-exchangeable routing framework of
// Chinn–Leighton–Tompa Section 2. A destination-exchangeable algorithm's
// outqueue policy, inqueue policy, and state transitions may depend only on
//
//   - the states, source addresses, and profitable outlinks of packets, and
//   - the state of the node,
//
// never on full destination addresses. Package dex enforces this at the
// type level: a policy receives a NodeCtx (and, as the inqueue policy, an
// Offers) whose accessors expose exactly that list and nothing else — no
// accessor on NodeCtx, View or Offers returns a destination. Lemma 10 of the paper — that exchanging the
// destinations of two packets with identical profitable outlinks is
// invisible to the algorithm — therefore holds for every policy written
// against this package, by construction.
//
// The adapter is the sole boundary between policies and the engine's
// index-based packet representation, and it copies nothing: a NodeCtx is a
// window onto the node's sim.PacketID queue slots, Offers is a window onto
// the engine's offers to the node, and each accessor of either reads one
// offer field or one column of the struct-of-arrays store on demand, so a
// policy pays for what it reads. The profitable set is itself a column
// (PacketStore.Prof), which the engine rewrites when a packet hops or part
// (b) exchanges its destination; package dex never reads Dst. Index i is
// the queue position the engine reads from Schedule, the PacketID behind it
// is stable for the packet's lifetime (row 0 is the reserved sentinel and
// never appears in a queue), and SetPacketState writes through to the row
// the accessors read.
package dex

import (
	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// View is everything a destination-exchangeable policy may observe about
// one resident packet, as one value built by NodeCtx.View (the accessors of
// the same names say why the model allows each field): no destination.
// Packet age is a relation between two residents, read with NodeCtx.Older.
type View struct {
	// Index is the packet's index in the node (use it in Schedule).
	Index       int
	Source      grid.NodeID
	State       uint64
	Arrived     grid.Dir
	ArrivedStep int
	QTag        uint8
	Profitable  grid.DirSet
}

// NodeCtx is the per-node context handed to policies: the node's own state
// plus a zero-copy window onto its resident packets, indexed 0..Len()-1 in
// queue (FIFO) order. Policies may read everything, may mutate State and
// packet states (SetPacketState), and must not retain it past the call.
type NodeCtx struct {
	// ID is the node identifier.
	ID grid.NodeID
	// Step is the current step number (1-based; 0 in InitNode).
	Step int
	// K is the per-queue capacity.
	K int
	// Queues is the queue model.
	Queues sim.QueueModel
	// State is the node's state word; mutate freely.
	State *uint64

	net  *sim.Network
	node *sim.Node
	pids []sim.PacketID
}

// Len returns the number of resident packets.
func (c *NodeCtx) Len() int { return len(c.pids) }

// Profitable returns the i-th resident's profitable outlinks — the only
// destination information available.
func (c *NodeCtx) Profitable(i int) grid.DirSet { return c.net.P.Prof[c.pids[i]] }

// PacketState returns the i-th resident's algorithm-owned state word.
func (c *NodeCtx) PacketState(i int) uint64 { return c.net.P.State[c.pids[i]] }

// SetPacketState overwrites the state word of the i-th resident packet.
func (c *NodeCtx) SetPacketState(i int, s uint64) { c.net.P.State[c.pids[i]] = s }

// Arrived returns the i-th resident's last travel direction (NoDir at its
// origin): information the node could have recorded in the state on arrival.
func (c *NodeCtx) Arrived(i int) grid.Dir { return c.net.P.Arrived[c.pids[i]] }

// ArrivedStep returns the step of the i-th resident's last hop (likewise).
func (c *NodeCtx) ArrivedStep(i int) int { return int(c.net.P.ArrivedStep[c.pids[i]]) }

// Source returns the i-th resident's source address (allowed by the model).
func (c *NodeCtx) Source(i int) grid.NodeID { return c.net.P.Src[c.pids[i]] }

// Older reports whether the i-th resident entered the network before the
// j-th: at an earlier step, or at the same step and created first. A
// packet's age is fixed when it is created and injected, so it is part of
// the packet's state, and exchanging destinations leaves it unchanged.
func (c *NodeCtx) Older(i, j int) bool {
	p, q := c.pids[i], c.pids[j]
	a, b := c.net.P.InjectStep[p], c.net.P.InjectStep[q]
	return a < b || (a == b && p < q)
}

// QTag returns the queue holding the i-th resident (sim.OriginTag for
// packets that have not moved, under the per-inlink model).
func (c *NodeCtx) QTag(i int) uint8 { return c.net.P.QTag[c.pids[i]] }

// View returns the i-th resident's observable fields as one value.
func (c *NodeCtx) View(i int) View {
	return View{
		Index:       i,
		Source:      c.Source(i),
		State:       c.PacketState(i),
		Arrived:     c.Arrived(i),
		ArrivedStep: c.ArrivedStep(i),
		QTag:        c.QTag(i),
		Profitable:  c.Profitable(i),
	}
}

// Coord returns the node coordinate.
func (c *NodeCtx) Coord() grid.Coord { return c.net.Topo.CoordOf(c.ID) }

// Outlinks returns the set of outlinks that exist at this node.
func (c *NodeCtx) Outlinks() grid.DirSet { return c.net.Topo.Outlinks(c.ID) }

// Up returns the subset of Outlinks whose links are currently up (all of
// them without fault injection). Link status is locally observable, so a
// fault-aware policy may consult it; one that does not behaves identically
// with and without faults — exactly the Section 2 model.
func (c *NodeCtx) Up() grid.DirSet { return c.Outlinks() &^ c.net.DownOutlinks(c.ID) }

// QueueLen returns the current occupancy of the queue with the given tag.
func (c *NodeCtx) QueueLen(tag uint8) int { return c.net.QueueLen(c.node, tag) }

// Scheduled returns the outlinks this node's own Schedule put a packet on in
// part (a) of the current step (empty outside a step and for a node that
// held no packet). It is node-local information — the node made the decision
// — so an inqueue policy may base its answer on it.
func (c *NodeCtx) Scheduled() grid.DirSet { return c.node.Scheduled() }

// Offers is the inqueue policy's zero-copy window onto the packets scheduled
// to enter the node, indexed 0..Len()-1 in the engine's offer order. The
// offers arrive on pairwise distinct inlinks, so there are at most four.
// Like NodeCtx it must not be retained past the call.
type Offers struct {
	offs []sim.Offer
	st   *sim.PacketStore
}

// Len returns the number of offers.
func (o Offers) Len() int { return len(o.offs) }

// From returns the node the i-th offered packet is coming from.
func (o Offers) From(i int) grid.NodeID { return o.offs[i].From }

// Travel returns the i-th offer's direction of travel; the packet arrives on
// the Travel(i).Opposite() inlink.
func (o Offers) Travel(i int) grid.Dir { return o.offs[i].Travel }

// Source returns the i-th offered packet's source address.
func (o Offers) Source(i int) grid.NodeID { return o.st.Src[o.offs[i].P] }

// State returns the i-th offered packet's algorithm-owned state word.
func (o Offers) State(i int) uint64 { return o.st.State[o.offs[i].P] }

// Profitable returns the i-th offered packet's profitable outlinks measured
// at the sending node, as the paper specifies: the packet is still resident
// there throughout part (c).
func (o Offers) Profitable(i int) grid.DirSet { return o.st.Prof[o.offs[i].P] }

// Policy is a destination-exchangeable routing algorithm.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// InitNode sets the initial node state and the initial states of the
	// packets originating at the node (which, per the model, may depend
	// only on the node's initial state and each packet's own source and
	// profitable outlinks).
	InitNode(c *NodeCtx)
	// Schedule is the outqueue policy: for each direction, the index
	// (0..c.Len()-1) of the packet to transmit, or -1.
	Schedule(c *NodeCtx) [grid.NumDirs]int
	// Accept is the inqueue policy: accept[i] reports whether offer i is
	// admitted. accept arrives with offers.Len() entries, all false; the
	// policy sets the entries it admits. It must never overflow a queue.
	// The offers arrive on pairwise distinct inlinks, at most four of them.
	Accept(c *NodeCtx, offers Offers, accept []bool)
	// Update is the end-of-step state transition.
	Update(c *NodeCtx)
}

// Adapter lifts a Policy to a sim.Algorithm, pointing a NodeCtx at the
// node the engine is driving. Use one adapter per run.
type Adapter struct {
	// P is the wrapped policy.
	P Policy

	ctx NodeCtx
}

// NewAdapter wraps a policy for use with the sim engine.
func NewAdapter(p Policy) *Adapter { return &Adapter{P: p} }

// Name returns the wrapped policy's name.
func (a *Adapter) Name() string { return a.P.Name() }

func (a *Adapter) fill(net *sim.Network, n *sim.Node) *NodeCtx {
	c := &a.ctx
	c.ID = n.ID
	c.Step = net.Step()
	c.K = net.K
	c.Queues = net.Queues
	c.State = &n.State
	c.net = net
	c.node = n
	c.pids = net.PacketsOf(n)
	return c
}

// InitNode implements sim.Algorithm.
func (a *Adapter) InitNode(net *sim.Network, n *sim.Node) { a.P.InitNode(a.fill(net, n)) }

// Schedule implements sim.Algorithm.
func (a *Adapter) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	return a.P.Schedule(a.fill(net, n))
}

// Accept implements sim.Algorithm.
func (a *Adapter) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, accept []bool) {
	a.P.Accept(a.fill(net, n), Offers{offers, &net.P}, accept)
}

// Update implements sim.Algorithm.
func (a *Adapter) Update(net *sim.Network, n *sim.Node) { a.P.Update(a.fill(net, n)) }

var _ sim.Algorithm = (*Adapter)(nil)
