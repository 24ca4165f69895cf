// Package sim implements the synchronous, multi-port packet-routing model of
// Chinn, Leighton and Tompa (Section 2): an n×n mesh or torus in which every
// node holds a bounded queue of packets and one step consists of
//
//	(a) each node's outqueue policy choosing at most one packet per outlink,
//	(b) an optional adversary exchange of destination addresses,
//	(c) each node's inqueue policy accepting or refusing incoming packets,
//	(d) simultaneous transmission of the accepted packets, and
//	(e) node- and packet-state updates,
//
// exactly the five-part step sequence used in the paper's lower-bound
// construction. Packets that reach their destination are delivered and leave
// the network.
//
// The engine supports the central-queue model (one queue of capacity K per
// node) and the four-incoming-queues model of Section 5 / Theorem 15 (one
// queue of capacity K per inlink). It iterates only over occupied nodes, so
// long runs on sparse instances cost O(packets) per step.
//
// # Index-based packet representation
//
// Packet state is stored struct-of-arrays: every per-packet field lives in
// its own dense slice inside the Network's PacketStore (the exported P
// field), and packets are referenced everywhere — queue slots, scheduled
// moves, offers, adversary role indices — by PacketID, a uint32 index into
// those slices. Queue contents are PacketID slots in one flat backing array
// shared by all nodes (each node owns a contiguous region of it), so a step
// touches dense, cache-adjacent memory instead of chasing per-packet
// pointers. The representation upholds two invariants that all client code
// may rely on:
//
//   - a PacketID is stable for the packet's lifetime: NewPacket assigns the
//     next free index and nothing ever moves a packet to a different index;
//   - slot 0 of the store is never a live packet: index 0 is a reserved
//     sentinel, so the zero PacketID is always "no packet" and external
//     packet IDs are PacketID-1.
//
// The old pointer-based *Packet API survives as a by-value snapshot: Packet
// is now a plain value struct and Network.Packets materializes the store
// into a reused snapshot slice for read-only post-run consumers (digests,
// reports). Mutating a snapshot does not affect the run; write through the
// store (or engine methods) instead.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// QueueModel selects how a node's storage is organized.
type QueueModel uint8

const (
	// CentralQueue gives each node a single queue of capacity K
	// (the model of Sections 2-4).
	CentralQueue QueueModel = iota
	// PerInlinkQueues gives each node four queues of capacity K, one per
	// inlink (the "Other Queue Types" model of Section 5, used by the
	// Theorem 15 router). Packets that originate at a node live in a
	// separate origin buffer that does not count against K.
	PerInlinkQueues
)

// Queue tags. For PerInlinkQueues, tags 0..3 are the inlink queues named by
// the direction the packet came *from* (a packet travelling East arrives in
// the West queue). OriginTag holds packets that have not yet moved.
const (
	// OriginTag is the queue tag of packets still at their source.
	OriginTag uint8 = 4
	numTags         = 5
)

// PacketID is the engine's handle for one packet: an index into the dense
// per-field slices of the PacketStore. It is assigned by NewPacket, is
// stable for the packet's lifetime, and 0 is a reserved sentinel that never
// names a live packet (so the zero value always means "no packet").
type PacketID uint32

// NoPacket is the zero PacketID sentinel.
const NoPacket PacketID = 0

// ID returns the packet's external identifier: dense, 0-based, in creation
// order. It equals the index minus one (index 0 is the reserved sentinel),
// so IDs are identical to those the pointer-based engine assigned.
func (p PacketID) ID() int32 { return int32(p) - 1 }

// PacketStore is the struct-of-arrays backing store for all packets of a
// Network: field i of packet p lives at slice[p] of the corresponding dense
// slice. All exported slices are indexed by PacketID; index 0 is a reserved
// sentinel (never a live packet). Fields may be read directly, and the free
// tags (State, Class, Tag) written; the engine maintains At, Prof, QTag,
// Arrived, ArrivedStep, InjectStep, DeliverStep and Hops itself, and Dst
// changes only through Network.ExchangeDst.
type PacketStore struct {
	// Src is the node where the packet was injected.
	Src []grid.NodeID
	// Dst is the destination. An adversary exchange hook may swap the Dst
	// entries of two packets mid-run (part (b) of a step), but only through
	// Network.ExchangeDst, which rewrites the two packets' Prof with them.
	Dst []grid.NodeID
	// At is the node currently holding the packet (its destination once
	// delivered). Maintained by the engine.
	At []grid.NodeID
	// Prof is the packet's profitable-outlink set, Topo.Profitable(At, Dst),
	// cached while the packet is resident in a queue. It can change only
	// when the packet hops or part (b) exchanges its destination, and the
	// engine rewrites it at exactly those two points (attach and
	// ExchangeDst); everything in the step loop that asks "which outlinks
	// are profitable" reads this column. CheckInvariants verifies it
	// against a fresh computation every step.
	Prof []grid.DirSet
	// State is algorithm-owned scratch that travels with the packet.
	// Under destination-exchangeability it may be updated only from
	// information listed in Section 2 of the paper.
	State []uint64
	// Arrived is the direction of travel of the packet's last hop
	// (NoDir if it has not moved).
	Arrived []grid.Dir
	// QTag is the queue within its current node that holds the packet.
	QTag []uint8
	// Class is a free tag for algorithms and adversaries (e.g. the
	// N_i/E_i packet kind in the lower-bound construction).
	Class []uint8
	// Tag is a free integer tag (e.g. the i index of an N_i-packet).
	Tag []int32
	// ArrivedStep is the step of the packet's last hop (0 if none).
	ArrivedStep []int32
	// InjectStep is the step at which the packet entered the network.
	InjectStep []int32
	// DeliverStep is the step at which the packet was delivered, or -1.
	DeliverStep []int32
	// Hops counts link traversals.
	Hops []int32

	// slot is the packet's position within its holder's queue region,
	// maintained by the engine (attach and the part (d) compaction), so
	// removal never needs a scan.
	slot []int32
	// departing marks a packet that leaves its node this step: set in part
	// (c) as its arrival is listed, cleared in part (d).
	departing []bool
}

// Len returns the number of packets ever created (excluding the sentinel).
func (st *PacketStore) Len() int { return len(st.Src) - 1 }

// Delivered reports whether the packet has reached its destination.
func (st *PacketStore) Delivered(p PacketID) bool { return st.DeliverStep[p] >= 0 }

// minStoreCap is the packet store's first capacity.
const minStoreCap = 64

// add appends one packet to every field slice and returns its index. The
// columns share one capacity (reserve keeps them in step), so the single
// test below is the store's whole growth policy: when full, every column
// doubles together and none of the appends that follow reallocates.
func (st *PacketStore) add(src, dst grid.NodeID) PacketID {
	if len(st.Src) == cap(st.Src) {
		st.reserve(max(len(st.Src), minStoreCap))
	}
	st.Src = append(st.Src, src)
	st.Dst = append(st.Dst, dst)
	st.At = append(st.At, src)
	st.Prof = append(st.Prof, 0)
	st.State = append(st.State, 0)
	st.Arrived = append(st.Arrived, grid.NoDir)
	st.QTag = append(st.QTag, 0)
	st.Class = append(st.Class, 0)
	st.Tag = append(st.Tag, 0)
	st.ArrivedStep = append(st.ArrivedStep, 0)
	st.InjectStep = append(st.InjectStep, 0)
	st.DeliverStep = append(st.DeliverStep, -1)
	st.Hops = append(st.Hops, 0)
	st.slot = append(st.slot, -1)
	st.departing = append(st.departing, false)
	return PacketID(len(st.Src) - 1)
}

// reserve gives every column room for n more packets, all with the same
// capacity.
func (st *PacketStore) reserve(n int) {
	st.Src = growColumn(st.Src, n)
	st.Dst = growColumn(st.Dst, n)
	st.At = growColumn(st.At, n)
	st.Prof = growColumn(st.Prof, n)
	st.State = growColumn(st.State, n)
	st.Arrived = growColumn(st.Arrived, n)
	st.QTag = growColumn(st.QTag, n)
	st.Class = growColumn(st.Class, n)
	st.Tag = growColumn(st.Tag, n)
	st.ArrivedStep = growColumn(st.ArrivedStep, n)
	st.InjectStep = growColumn(st.InjectStep, n)
	st.DeliverStep = growColumn(st.DeliverStep, n)
	st.Hops = growColumn(st.Hops, n)
	st.slot = growColumn(st.slot, n)
	st.departing = growColumn(st.departing, n)
}

// growColumn returns col with capacity for exactly n more elements, unless
// it already has it. Unlike slices.Grow it never rounds the capacity up to
// an allocator size class, which differs by element width and would let the
// columns drift apart.
func growColumn[T any](col []T, n int) []T {
	if cap(col)-len(col) >= n {
		return col
	}
	out := make([]T, len(col), len(col)+n)
	copy(out, col)
	return out
}

// Packet is a read-only by-value snapshot of one packet, materialized from
// the PacketStore by Network.Packets or Network.PacketSnapshot. Routing
// algorithms under the destination-exchangeability restriction never see
// Dst directly; they receive profitable-outlink views computed by the
// engine (package dex).
type Packet struct {
	// ID is a unique, dense identifier (PacketID minus one).
	ID int32
	// Src is the node where the packet was injected.
	Src grid.NodeID
	// Dst is the destination at snapshot time.
	Dst grid.NodeID
	// State is the algorithm-owned scratch word.
	State uint64
	// Arrived is the direction of travel of the packet's last hop
	// (NoDir if it has not moved).
	Arrived grid.Dir
	// ArrivedStep is the step of the packet's last hop (0 if none).
	ArrivedStep int
	// InjectStep is the step at which the packet entered the network.
	InjectStep int
	// DeliverStep is the step at which the packet was delivered, or -1.
	DeliverStep int
	// Hops counts link traversals.
	Hops int
	// At is the node currently holding the packet (its destination once
	// delivered).
	At grid.NodeID
	// QTag is the queue within its current node that holds the packet.
	QTag uint8
	// Class is a free tag for algorithms and adversaries.
	Class uint8
	// Tag is a free integer tag.
	Tag int32
}

// Delivered reports whether the packet has reached its destination.
func (p Packet) Delivered() bool { return p.DeliverStep >= 0 }

// Node is one mesh node: its algorithm state, the location of its queue
// region within the network's flat slot array, and the engine's per-step
// bookkeeping for it. It is the only node-indexed record a fault-free
// central-queue network allocates up front (32 bytes); queue contents are
// read with Network.PacketsOf, queue lengths with Network.QueueLen.
type Node struct {
	// ID is the node identifier.
	ID grid.NodeID
	// offStart is, while the node is a part (c) target, the index in the
	// step's moves of its newest offer (see acceptOffers).
	offStart int32
	// State is algorithm-owned scratch (e.g. round-robin counters).
	State uint64

	// qStart/qLen/qCap locate the node's queue region in Network.slots:
	// the resident packets, in arrival (FIFO) order, are
	// slots[qStart : qStart+qLen], inside a reserved region of qCap slots.
	qStart, qLen, qCap uint32

	// sched is this step's outqueue decision as a set: direction d is in it
	// exactly when Schedule returned a packet for outlink d (recorded by
	// scheduleNodes before fault drops).
	sched grid.DirSet
	// flags holds the occupied, offered and sent bits (see nodeOccupied).
	flags uint8
	// offCount is the number of offers this node receives in part (c): at
	// most one per inlink, so four. Part (c) counts them as it links them.
	offCount uint8
}

// Node.flags bits. Each is set and cleared by the engine within the phase
// that owns it, so no bit outlives its phase, nor a step that fails in it:
//
//   - nodeOccupied: the node is on the occupied list (set by attach,
//     cleared when part (a) or compactOcc drops the node from the list);
//   - nodeOffered: the node is a part (c) target this step (set when
//     acceptOffers appends it to the targets, cleared after its Accept);
//   - nodeSent: the node sends a packet in part (d) this step (set in part
//     (c) as each arrival is listed, by depart, cleared by compactSenders).
const (
	nodeOccupied uint8 = 1 << iota
	nodeOffered
	nodeSent
)

// Scheduled returns the outlinks the node's outqueue policy put a packet on
// in part (a) of the current step: empty for a node that held no packet or
// was stalled. It is the node's own decision, so an inqueue policy may read
// it in part (c) — the swap rule does — instead of running Schedule again.
func (n *Node) Scheduled() grid.DirSet { return n.sched }

// Len returns the number of resident packets (including the origin buffer).
func (n *Node) Len() int { return int(n.qLen) }

// Offer describes a packet scheduled to enter a node during part (a) of the
// current step, presented to the target's inqueue policy in part (c).
type Offer struct {
	// P is the scheduled packet.
	P PacketID
	// From is the node the packet is coming from.
	From grid.NodeID
	// Travel is the direction of travel (the sender's outlink); the
	// packet arrives on the target's Travel.Opposite() inlink.
	Travel grid.Dir
}

// Move describes one transmission: scheduled, as given to the exchange
// hook (part (b)), then — if accepted — applied in part (d) and reported to
// the observer.
type Move struct {
	// P is the scheduled packet.
	P PacketID
	// From is the sending node.
	From grid.NodeID
	// To is the target node.
	To grid.NodeID
	// Travel is the direction of travel.
	Travel grid.Dir
}

// ExchangeFn is the adversary hook invoked between scheduling and
// acceptance. It may exchange the destinations of packet pairs (an
// "exchange" in the paper's sense), and destinations change only through
// Network.ExchangeDst; it must not move, add or remove packets. After it
// returns, every scheduled move must still be legal: minimal under
// RequireMinimal, within the new rectangle inflated by MaxStray otherwise.
type ExchangeFn func(net *Network, step int, moves []Move)

// Algorithm is a routing algorithm driven by the engine. Implementations
// must be deterministic. Destination-exchangeable algorithms should be
// built with package dex, which restricts the information they can see;
// general algorithms (e.g. farthest-first) may inspect the packet store
// freely.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// InitNode sets up node (and origin packet) state before step 1.
	// It is called once per node holding at least one packet.
	InitNode(net *Network, n *Node)
	// Schedule implements the outqueue policy: for each direction it
	// returns the index (into net.PacketsOf(n)) of the packet to send on
	// that outlink, or -1. A packet may be scheduled on at most one
	// outlink, and only on an existing outlink.
	Schedule(net *Network, n *Node) [grid.NumDirs]int
	// Accept implements the inqueue policy: accept[i] reports whether
	// offers[i] is admitted. The engine provides accept with exactly
	// len(offers) entries, cleared to false; the policy sets the entries
	// it admits. It must never overflow a queue. A node's offers arrive
	// on pairwise distinct inlinks, at most four of them: each inlink is
	// one neighbour's outlink in one direction, which carries at most one
	// packet per step, even where two outlinks of one neighbour reach the
	// same node (a torus of side 1 or 2).
	Accept(net *Network, n *Node, offers []Offer, accept []bool)
	// Update is the part (e) state update, called for every node that
	// held a packet at the start or end of the step.
	Update(net *Network, n *Node)
}

// Config configures a Network.
type Config struct {
	// Topo is the mesh or torus.
	Topo grid.Topology
	// K is the capacity of each queue (k >= 1 in the paper).
	K int
	// Queues selects the queue model.
	Queues QueueModel
	// RequireMinimal makes the engine reject any scheduled move that is
	// not profitable (shortest-path). Enable for minimal routers.
	RequireMinimal bool
	// MaxStray, when > 0, bounds how far a packet may move beyond the
	// rectangle spanned by its source and destination — the class of the
	// Section 5 "Nonminimal extensions" with δ = MaxStray: every move
	// must keep the packet within that rectangle inflated by MaxStray in
	// each direction. 0 means unrestricted (when RequireMinimal is
	// false). Mesh only.
	MaxStray int
	// CheckInvariants enables the per-step runtime invariant checker:
	// queue capacity under either queue model, per-node count
	// consistency, the cached profitable sets (PacketStore.Prof), and
	// packet conservation (see invariants.go), checked in part (e).
	// When false the engine pays one branch per occupied node and zero
	// allocations for it.
	CheckInvariants bool
	// Faults is an optional deterministic fault schedule (link failures,
	// node stalls) applied at the start of each step; nil disables fault
	// injection entirely. See internal/fault and docs/ROBUSTNESS.md.
	Faults *fault.Schedule
	// Watchdog, when > 0, is the livelock watchdog's no-progress window
	// in steps: the step that completes this many consecutive steps
	// without a single delivery returns a *LivelockError carrying
	// structured diagnostics instead of burning the remaining step budget.
	// Each Run call opens a fresh window, and a step Run begins with
	// nothing undelivered counts as progress. 0 disables the
	// watchdog.
	Watchdog int
}

// Network is a mesh with packets in flight. Create with New, populate with
// Place or AttachSource, then drive with Run or StepOnce.
type Network struct {
	// Topo is the topology the network was built on.
	Topo grid.Topology
	// K is the per-queue capacity.
	K int
	// Queues is the queue model.
	Queues QueueModel

	// P is the struct-of-arrays packet store: P.Src[p], P.Dst[p], … are
	// the fields of PacketID p. Index 0 is a reserved sentinel.
	P PacketStore

	cfg   Config
	nodes []Node
	step  int

	// tagLen holds each node's per-tag queue lengths on a four-inlink
	// network, the one model whose residents sit in more than one queue
	// (10 B/node). It is nil under a central queue, whose one queue (tag
	// 0) holds every resident: its length is Node.qLen.
	tagLen [][numTags]int16

	// slots is the flat queue-slot array: every node's queue is a
	// contiguous region of it (see Node.qStart/qLen/qCap). Regions grow by
	// doubling (relocating to the end of slots and abandoning the old
	// region), so at steady state no attach ever allocates.
	slots []PacketID

	// occ is the occupied-node list, in first-occupied (insertion) order —
	// NOT sorted. Its order is deterministic: it depends only on the
	// placement/injection sequence and the algorithm's moves, so identical
	// runs see identical occ order (pinned by TestOccupiedOrderDeterminism).
	// Parts (a) and (e) iterate it, which fixes the order moves are
	// presented to the exchange hook and offers to inqueue policies.
	occ       []grid.NodeID
	total     int
	delivered int
	placed    []PacketID // all placed or injected packets, in placement order
	snapshot  []Packet   // reused buffer backing Packets()

	// backlog holds, per node, the packets injected but not yet in a queue.
	// It, inBacklog and backlogHead are allocated by the first packet that
	// has to wait (toBacklog): a run in which every packet enters at once
	// never pays their 29 B/node.
	backlog [][]PacketID

	// Active-backlog tracking: the nodes whose backlog is nonempty, so
	// injectPending touches O(active) slots per step instead of scanning
	// all N backlog slots. inBacklog is the membership bitmap; backlogHead
	// is the index of each backlog's first undrained packet, so draining
	// advances an index instead of reslicing (which would shed the slice's
	// base pointer and force a fresh allocation every refill).
	backlogNodes []grid.NodeID
	inBacklog    []bool
	backlogHead  []int32

	// Streaming-workload state (see source.go). The source is pulled once
	// per step by the injection phase; injBuf is the reused Next buffer;
	// srcErr refuses a pull that named a node outside the topology.
	source       Source
	admit        AdmissionPolicy
	srcExhausted bool
	openSource   bool // source injects beyond step 0 (an online run)
	injBuf       []Injection
	srcErr       error

	// analyzer, when non-nil, observes every packet that materializes in
	// the run (placements and admitted streamed injections) so
	// congestion/dilation accrue at admission time. Nil when analysis is
	// off: the hook is one pointer test per admission.
	analyzer Analyzer

	// Per-step admission counters, reset at the top of the injection
	// phase and folded into Metrics / the step sample at its end.
	stepOffered  int
	stepAdmitted int
	stepRefused  int
	stepDropped  int

	exchange ExchangeFn
	observer ObserverFn
	sink     obs.Sink

	backlogTotal int // packets in per-source backlogs, not yet in a queue

	// Fault-injection state (allocated only when cfg.Faults is set).
	hasFaults   bool
	faultCursor int                   // next unapplied schedule event
	linkDownCnt [][grid.NumDirs]int16 // per node: open transient downs per outlink
	linkPerm    []grid.DirSet         // per node: permanently failed outlinks
	stalledCnt  []int16               // per node: open stall episodes

	lastProgress int // last step with a delivery or begun empty (watchdog progress mark)

	// Metrics accumulates run statistics.
	Metrics Metrics

	inited  bool
	scratch stepScratch
}

// stepScratch holds every per-step buffer the engine needs, reused across
// steps so a steady-state step allocates nothing. The per-node offer index
// and the target/sender marks live in Node itself.
type stepScratch struct {
	moves   []Move
	targets []grid.NodeID       // part (c) offer targets, first-seen order
	next    []int32             // next[i]: the move of the offer before moves[i] at its target
	offers  [grid.NumDirs]Offer // one target's offers, in move order
	accept  [grid.NumDirs]bool  // and its policy's decisions

	arrivals []Move
	senders  []grid.NodeID // distinct sending nodes of this step's arrivals

	// Observer record buffer (reused only when an observer is set).
	recDelivered []int32
}

// New creates an empty network, validating the configuration: the
// topology must be non-nil, K >= 1, the queue model known, MaxStray and
// Watchdog non-negative, and any fault schedule consistent with the
// topology.
func New(cfg Config) (*Network, error) {
	if cfg.Topo == nil {
		return nil, errors.New("sim: nil topology")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("sim: queue capacity K=%d, need K >= 1", cfg.K)
	}
	if cfg.Queues != CentralQueue && cfg.Queues != PerInlinkQueues {
		return nil, fmt.Errorf("sim: unknown queue model %d", cfg.Queues)
	}
	if cfg.MaxStray < 0 {
		return nil, fmt.Errorf("sim: negative MaxStray %d", cfg.MaxStray)
	}
	if cfg.Watchdog < 0 {
		return nil, fmt.Errorf("sim: negative watchdog window %d", cfg.Watchdog)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Topo); err != nil {
			return nil, err
		}
	}
	n := cfg.Topo.N()
	net := &Network{
		Topo:   cfg.Topo,
		K:      cfg.K,
		Queues: cfg.Queues,
		cfg:    cfg,
		nodes:  make([]Node, n),
	}
	for i := range net.nodes {
		net.nodes[i].ID = grid.NodeID(i)
	}
	if cfg.Queues == PerInlinkQueues {
		net.tagLen = make([][numTags]int16, n)
	}
	// Index 0 of the packet store is the reserved sentinel: never a live
	// packet, so the zero PacketID always means "no packet".
	net.P.add(0, 0)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		net.hasFaults = true
		net.linkDownCnt = make([][grid.NumDirs]int16, n)
		net.linkPerm = make([]grid.DirSet, n)
		net.stalledCnt = make([]int16, n)
	}
	return net, nil
}

// MustNew is New but panics on a bad configuration, for tests, benchmarks
// and generators that construct known-valid networks.
func MustNew(cfg Config) *Network {
	net, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return net
}

// Step returns the number of steps executed so far.
func (net *Network) Step() int { return net.step }

// Node returns the node with the given identifier.
func (net *Network) Node(id grid.NodeID) *Node { return &net.nodes[id] }

// PacketsOf returns the node's resident packets in arrival (FIFO) order, as
// PacketID handles into the store. The slice aliases the engine's flat slot
// array: treat it as read-only, and do not retain it across engine calls
// (part (d) compaction and queue growth may rewrite or relocate it).
func (net *Network) PacketsOf(n *Node) []PacketID {
	return net.slots[n.qStart : n.qStart+n.qLen : n.qStart+n.qCap]
}

// QueueLen returns the number of packets in the node's queue with the given
// tag: under a central queue, every resident is in queue 0.
func (net *Network) QueueLen(n *Node, tag uint8) int {
	switch {
	case net.tagLen != nil:
		return int(net.tagLen[n.ID][tag])
	case tag == 0:
		return int(n.qLen)
	}
	return 0
}

// NetworkLen returns the number of the node's resident packets excluding
// the origin buffer (i.e. packets that count against queue capacity in the
// per-inlink-queue model).
func (net *Network) NetworkLen(n *Node) int { return n.Len() - net.QueueLen(n, OriginTag) }

// PacketSnapshot materializes one packet's current store fields as a Packet
// value.
func (net *Network) PacketSnapshot(p PacketID) Packet {
	st := &net.P
	return Packet{
		ID:          p.ID(),
		Src:         st.Src[p],
		Dst:         st.Dst[p],
		State:       st.State[p],
		Arrived:     st.Arrived[p],
		ArrivedStep: int(st.ArrivedStep[p]),
		InjectStep:  int(st.InjectStep[p]),
		DeliverStep: int(st.DeliverStep[p]),
		Hops:        int(st.Hops[p]),
		At:          st.At[p],
		QTag:        st.QTag[p],
		Class:       st.Class[p],
		Tag:         st.Tag[p],
	}
}

// Packets materializes all packets ever placed or injected, in placement
// order (ID order for workloads that place packets as they create them),
// as by-value snapshots. Delivered packets remain in the slice (with
// DeliverStep set). The returned slice is a reused buffer owned by the
// network: it is valid until the next Packets call and mutating it does not
// affect the run.
func (net *Network) Packets() []Packet {
	if cap(net.snapshot) < len(net.placed) {
		net.snapshot = make([]Packet, 0, len(net.placed))
	}
	out := net.snapshot[:0]
	for _, p := range net.placed {
		out = append(out, net.PacketSnapshot(p))
	}
	net.snapshot = out
	return out
}

// TotalPackets returns the number of packets placed or injected.
func (net *Network) TotalPackets() int { return net.total }

// DeliveredCount returns the number of packets delivered so far.
func (net *Network) DeliveredCount() int { return net.delivered }

// Done reports whether the run is quiescent: every materialized packet has
// been delivered (none waits in a backlog) and any attached streaming
// source is exhausted. For open workloads (a live source) Done
// stays false until the source dries up and the network drains, so run
// termination comes from the step budget (the horizon) instead. A source
// refused by Err never makes the run done.
func (net *Network) Done() bool {
	return net.srcErr == nil && (net.source == nil || net.srcExhausted) &&
		net.delivered == net.total
}

// SetExchange installs the adversary exchange hook.
func (net *Network) SetExchange(fn ExchangeFn) { net.exchange = fn }

// ExchangeDst exchanges the destinations of packets p and q and recomputes
// both packets' cached profitable sets from where they are, so part (b)
// pays two Profitable calls per exchange, whatever the number of residents.
// It is the only way an exchange hook may change a destination.
func (net *Network) ExchangeDst(p, q PacketID) {
	st := &net.P
	st.Dst[p], st.Dst[q] = st.Dst[q], st.Dst[p]
	st.Prof[p] = net.Topo.Profitable(st.At[p], st.Dst[p])
	st.Prof[q] = net.Topo.Profitable(st.At[q], st.Dst[q])
}

// StepRecord describes what happened in one step, for observers.
type StepRecord struct {
	// Step is the step number.
	Step int
	// Moves lists the applied (accepted) transmissions, including
	// deliveries.
	Moves []Move
	// Delivered lists the IDs of packets delivered this step.
	Delivered []int32
}

// ObserverFn receives a record after each step. The record and its slices
// are only valid during the call.
type ObserverFn func(rec StepRecord)

// SetObserver installs a per-step observer (tracing, visualization).
func (net *Network) SetObserver(fn ObserverFn) { net.observer = fn }

// SetMetricsSink installs a metrics sink that receives one obs.StepSample
// at the end of every step (per-direction link utilization, the delivery
// curve, in-flight packet counts, and the end-of-step queue-occupancy
// histogram) and one obs.Event per fault or watchdog occurrence. A nil
// sink (the default) disables sampling entirely; the step loop then pays
// one branch and allocates nothing extra. Pass an untyped nil to disable —
// a nil *obs.JSONL stored in the interface is not nil and will be called.
func (net *Network) SetMetricsSink(s obs.Sink) { net.sink = s }

// LinkUp reports whether the directed channel (id, d) is currently up.
// Without a fault schedule every link is always up.
func (net *Network) LinkUp(id grid.NodeID, d grid.Dir) bool {
	if !net.hasFaults {
		return true
	}
	return !net.linkPerm[id].Has(d) && net.linkDownCnt[id][d] == 0
}

// DownOutlinks returns the set of currently-failed outlink directions of
// the node (empty without faults). The complement against the node's
// existing outlinks is the set a fault-aware router may use.
func (net *Network) DownOutlinks(id grid.NodeID) grid.DirSet {
	if !net.hasFaults {
		return 0
	}
	s := net.linkPerm[id]
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if net.linkDownCnt[id][d] > 0 {
			s = s.Set(d)
		}
	}
	return s
}

// Stalled reports whether the node is currently stalled by a fault.
func (net *Network) Stalled(id grid.NodeID) bool {
	return net.hasFaults && net.stalledCnt[id] > 0
}

// emitEvent forwards a fault/watchdog event to the metrics sink, if any.
func (net *Network) emitEvent(e obs.Event) {
	if net.sink != nil {
		net.sink.Event(e)
	}
}

// Analyzer observes every packet that materializes in a run, at the
// moment it is placed or streamed in.
// internal/analysis.Accumulator implements it to accrue congestion and
// dilation incrementally; the engine itself never imports the analysis
// package. Implementations must not allocate if the run is to stay
// zero-alloc, and must not retain references into the network.
type Analyzer interface {
	Admit(src, dst grid.NodeID)
}

// SetAnalyzer installs (or, with nil, removes) the admission-time
// analyzer. It must be called before any packet is admitted; with no
// analyzer installed the admission paths pay one nil test.
func (net *Network) SetAnalyzer(a Analyzer) { net.analyzer = a }

// NewPacket allocates a packet with the next free index, routed from src to
// dst, in the network's struct-of-arrays store. The packet is not placed;
// use Place. The returned PacketID is stable for the life of the network.
func (net *Network) NewPacket(src, dst grid.NodeID) PacketID {
	return net.P.add(src, dst)
}

// Place admits a packet at its source before the run starts, by the rule
// every later step admits one (admits): a packet at its destination is
// delivered, any other enters its source's queue if there is room and
// otherwise waits, FIFO, in the source's backlog, which drains from step 1.
// Both endpoints must be nodes of the topology. The packet counts as
// offered, and as admitted or refused, in the step-0 admission metrics.
func (net *Network) Place(p PacketID) error {
	if net.step != 0 || net.inited {
		return errors.New("sim: Place after run started")
	}
	st := &net.P
	src, dst := st.Src[p], st.Dst[p]
	for _, v := range [...]grid.NodeID{src, dst} {
		if v < 0 || int(v) >= len(net.nodes) {
			return fmt.Errorf("sim: step 0: packet %d (%d->%d): node %d is not one of the topology's %d nodes", p, src, dst, v, len(net.nodes))
		}
	}
	net.track(p)
	net.Metrics.Offered++
	if (net.backlog != nil && len(net.backlog[src]) > 0) || !net.admits(src, dst) {
		net.toBacklog(src, p)
		net.Metrics.Refused++
		return nil
	}
	net.enter(p, 0)
	net.Metrics.Admitted++
	return nil
}

// MustPlace is Place but panics on error (for tests and generators that
// construct known-valid instances).
func (net *Network) MustPlace(p PacketID) {
	if err := net.Place(p); err != nil {
		panic(err)
	}
}

// track enters a materialized packet in the run's books: the analyzer, the
// placement list and the conservation total.
func (net *Network) track(p PacketID) {
	if net.analyzer != nil {
		net.analyzer.Admit(net.P.Src[p], net.P.Dst[p])
	}
	net.placed = append(net.placed, p)
	net.total++
}

// admits is the one admission rule, for placement, the drop policy and the
// backlog drain alike: a stalled source admits nothing; otherwise a packet
// at its destination is delivered in place, and any other needs a free slot
// in its source's central queue (the four-inlink origin buffer never
// refuses).
func (net *Network) admits(src, dst grid.NodeID) bool {
	return !net.Stalled(src) && (src == dst || net.Queues == PerInlinkQueues || int(net.nodes[src].qLen) < net.K)
}

// enter admits packet p at step t, once admits has allowed it: p is
// delivered if it is at its destination and otherwise joins its source's
// central queue or origin buffer.
func (net *Network) enter(p PacketID, t int) {
	st := &net.P
	st.InjectStep[p] = int32(t)
	if st.Src[p] == st.Dst[p] {
		st.DeliverStep[p] = int32(t)
		net.delivered++
		net.Metrics.noteDelivered(t, t)
		return
	}
	tag := uint8(0)
	if net.Queues == PerInlinkQueues {
		tag = OriginTag
	}
	net.attach(&net.nodes[st.Src[p]], p, tag)
}

// minQueueCap is the initial slot-region capacity of a node's queue.
const minQueueCap = 4

// growQueue relocates the node's queue region to the end of the flat slot
// array with doubled capacity. The abandoned region is never reused, which
// bounds total slot memory at twice the peak live capacity; at steady state
// (no queue ever exceeding its region) attach allocates nothing. In a dense
// static run under a central queue with K <= minQueueCap it never extends
// the arena: no queue outgrows its first region, and reserveStatic left
// room for one such region per node.
func (net *Network) growQueue(n *Node) {
	newCap := n.qCap * 2
	if newCap < minQueueCap {
		newCap = minQueueCap
	}
	start := uint32(len(net.slots))
	net.slots = slices.Grow(net.slots, int(newCap))[:int(start+newCap)]
	copy(net.slots[start:], net.slots[n.qStart:n.qStart+n.qLen])
	n.qStart, n.qCap = start, newCap
}

// attach adds p to node under queue tag, maintaining occupancy tracking and
// the packet's slot index (used by the part (d) batch removal). It is the
// one place a packet becomes resident (placement, admission, part (d)
// arrival), hence the one place besides ExchangeDst that computes Prof.
func (net *Network) attach(node *Node, p PacketID, tag uint8) {
	st := &net.P
	st.QTag[p] = tag
	st.At[p] = node.ID
	st.Prof[p] = net.Topo.Profitable(node.ID, st.Dst[p])
	if node.qLen == node.qCap {
		net.growQueue(node)
	}
	st.slot[p] = int32(node.qLen)
	net.slots[node.qStart+node.qLen] = p
	node.qLen++
	if net.tagLen != nil {
		net.tagLen[node.ID][tag]++
	}
	if node.flags&nodeOccupied == 0 {
		node.flags |= nodeOccupied
		net.occ = append(net.occ, node.ID)
	}
}

// capOf returns the capacity of the queue with the given tag.
func (net *Network) capOf(tag uint8) int {
	if tag == OriginTag && net.Queues == PerInlinkQueues {
		return int(^uint(0) >> 1) // unbounded origin buffer
	}
	return net.K
}
