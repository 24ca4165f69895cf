package adversary

import (
	"context"
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Kind tags a construction packet's current role (determined by its current
// destination; exchanges swap roles along with destinations).
type Kind uint8

// Packet kinds.
const (
	// KindNone marks packets outside the construction (padding).
	KindNone Kind = iota
	// KindN marks N_i-packets (destined for the N_i-column, north of the
	// E_i-row).
	KindN
	// KindE marks E_i-packets (destined for the E_i-row, east of the
	// N_i-column).
	KindE
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindN:
		return "N"
	case KindE:
		return "E"
	}
	return "-"
}

// Construction runs one of the lower-bound adversaries against a routing
// algorithm on an n×n mesh (or embedded in a torus submesh). Create with
// NewConstruction, NewDeltaConstruction, NewHHConstruction,
// NewDOConstruction or NewFFConstruction.
type Construction struct {
	// Par holds the construction's constants.
	Par Params
	// Topo is the topology the construction runs on (an n×n mesh, or a
	// torus of side >= 2n for the Section 5 embedding).
	Topo grid.Topology
	// OffX, OffY place the construction's n×n submesh within Topo.
	OffX, OffY int
	// H is the h-h multiplicity (1 for permutation routing).
	H int
	// Verify enables per-step checking of the geometry's lemmas.
	Verify bool
	// PadIdentity fills every unused source/destination node with a
	// fixed-point packet, turning the partial permutation into a full
	// permutation (Step 2 of the construction, at its extreme).
	PadIdentity bool
	// Queues selects the queue model of the network under test
	// (CentralQueue by default; PerInlinkQueues for the Theorem 15
	// router, per the Section 5 "Other Queue Types" extension).
	Queues sim.QueueModel
	// NetK overrides the per-queue capacity of the network under test.
	// Leave 0 to use Par.K. ForQueues sets Queues and NetK for a router's
	// queue model.
	NetK int
	// Delta targets the Section 5 "Nonminimal extensions" class: the
	// router under test may move packets up to Delta nodes beyond their
	// source-destination rectangle (use NewDeltaConstruction).
	Delta int

	// geometry is fixed by the constructor, since Par is computed for it
	// (General for a struct literal).
	geometry Geometry
	// roles[kind][i] lists the packets currently in role kind_i.
	roles [3][][]sim.PacketID
	sched schedTable

	disableExchanges bool
	err              error
	exchg            int
	ver              *verifier
}

// schedTable remembers where each packet moving in the current step is
// scheduled to go, for partner eligibility. It is indexed by PacketID and an
// entry counts only if it carries the current step, so a run allocates the
// table once and no step clears it.
type schedTable struct {
	step int
	ent  []schedEntry
}

type schedEntry struct {
	step int // 0 in a fresh table; steps count from 1
	to   grid.NodeID
}

// newSchedTable returns the table for a network whose packets all exist.
func newSchedTable(net *sim.Network) schedTable {
	return schedTable{ent: make([]schedEntry, net.P.Len()+1)}
}

// record replaces the table's contents with the moves of step.
func (s *schedTable) record(step int, moves []sim.Move) {
	s.step = step
	for _, m := range moves {
		s.ent[m.P] = schedEntry{step, m.To}
	}
}

// target returns the node p is scheduled to enter this step, if it moves.
func (s *schedTable) target(p sim.PacketID) (grid.NodeID, bool) {
	e := s.ent[p]
	return e.to, e.step == s.step
}

// Result is the outcome of running a construction.
type Result struct {
	// Par holds the constants used.
	Par Params
	// Steps is ⌊l⌋·d·n, the step count the construction ran for and the
	// Theorem 13 lower bound.
	Steps int
	// Net is the construction-run network after Steps steps.
	Net *sim.Network
	// Permutation is the constructed permutation: every roster packet's
	// source with its final (post-exchange) destination, in placement
	// order. It includes the farthest-first band padding but not the
	// fixed points PadIdentity adds.
	Permutation []workload.Pair
	// Exchanges counts destination exchanges performed.
	Exchanges int
	// UndeliveredHard counts construction (N/E) packets undelivered at
	// step Steps; Corollary 9 guarantees it is positive.
	UndeliveredHard int
}

// NewConstruction prepares the Section 3 adversary for an n×n mesh with
// queue size k. Callers may then adjust the public fields before Run.
func NewConstruction(n, k int) (*Construction, error) {
	par, err := NewParams(n, k)
	return construction(General, par, 1, 0, err)
}

// NewDeltaConstruction prepares the Section 5 nonminimal-extension
// adversary for routers that stray at most delta beyond the
// source-destination rectangle (Ω(n²/((δ+1)³k²))).
func NewDeltaConstruction(n, k, delta int) (*Construction, error) {
	par, err := NewDeltaParams(n, k, delta)
	return construction(General, par, 1, delta, err)
}

// NewHHConstruction prepares the Section 5 h-h adversary: h packets on each
// node of the 1-box, forcing Ω(h³n²/(k+h)²) steps. Packets beyond the queue
// capacity enter through the dynamic injection backlog, as the paper's
// dynamic-routing extension allows.
func NewHHConstruction(n, k, h int) (*Construction, error) {
	par, err := NewHHParams(n, k, h)
	return construction(General, par, h, 0, err)
}

// NewDOConstruction prepares the Section 5 dimension-order adversary for an
// n×n mesh.
func NewDOConstruction(n, k int) (*Construction, error) {
	par, err := NewDOParams(n, k)
	return construction(DimOrder, par, 1, 0, err)
}

// NewFFConstruction prepares the Section 5 farthest-first adversary for an
// n×n mesh.
func NewFFConstruction(n, k int) (*Construction, error) {
	par, err := NewFFParams(n, k)
	return construction(FarthestFirst, par, 1, 0, err)
}

// ForQueues builds the construction newC makes for an n×n mesh against a
// network of queue model q with per-queue capacity k. Per Section 5's
// "Other Queue Types", four inlink queues of size k act as a central queue
// of 4k+1 (the +1 is the origin slot), so for PerInlinkQueues the
// construction's constants assume that capacity.
func ForQueues(newC func(n, k int) (*Construction, error), n, k int, q sim.QueueModel) (*Construction, error) {
	keff := k
	if q == sim.PerInlinkQueues {
		keff = 4*k + 1
	}
	c, err := newC(n, keff)
	if err != nil {
		return nil, err
	}
	c.Queues, c.NetK = q, k
	return c, nil
}

// construction wraps the result of a Params constructor into a
// construction of geometry g on the n×n mesh.
func construction(g Geometry, par Params, h, delta int, err error) (*Construction, error) {
	if err != nil {
		return nil, err
	}
	return &Construction{geometry: g, Par: par, Topo: grid.NewSquareMesh(par.N), H: h, Delta: delta}, nil
}

// local converts a topology node to construction-local coordinates.
func (c *Construction) local(id grid.NodeID) grid.Coord {
	g := c.Topo.CoordOf(id)
	return grid.XY(g.X-c.OffX, g.Y-c.OffY)
}

// node converts construction-local coordinates to a topology node.
func (c *Construction) node(x, y int) grid.NodeID {
	return c.Topo.ID(grid.XY(x+c.OffX, y+c.OffY))
}

// netK is the per-queue capacity of the network under test.
func (c *Construction) netK() int {
	if c.NetK == 0 {
		return c.Par.K
	}
	return c.NetK
}

// newNet builds the network under test with the minimality (or stray) and
// invariant checks on: a non-minimal or overflowing algorithm fails the
// run.
func (c *Construction) newNet() *sim.Network {
	return sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               c.netK(),
		Queues:          c.Queues,
		RequireMinimal:  c.Delta == 0,
		MaxStray:        c.Delta,
		CheckInvariants: true,
	})
}

// place puts pairs on net in order, as PacketIDs 1, 2, ...: Place queues
// the first netK packets of a source and backlogs the rest (h-h with
// h > k), which enter from step 1 in FIFO order. With PadIdentity every
// node that is neither a source nor a destination then gets a fixed point.
func (c *Construction) place(net *sim.Network, pairs []workload.Pair) error {
	used := map[grid.NodeID]bool{}
	for _, pr := range pairs {
		if err := net.Place(net.NewPacket(pr.Src, pr.Dst)); err != nil {
			return err
		}
		used[pr.Src], used[pr.Dst] = true, true
	}
	if !c.PadIdentity || c.H != 1 {
		return nil
	}
	for id := grid.NodeID(0); int(id) < c.Topo.N(); id++ {
		if !used[id] {
			if err := net.Place(net.NewPacket(id, id)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the construction against a fresh instance of the algorithm
// for exactly ⌊l⌋·d·n steps, applying the geometry's exchange rules, and
// returns the constructed permutation.
//
// The network is built with RequireMinimal (MaxStray when Delta > 0) and
// CheckInvariants enabled: a non-minimal or overflowing algorithm fails the
// run. H and Delta extend only the general geometry.
func (c *Construction) Run(alg sim.Algorithm) (*Result, error) {
	if c.H < 1 {
		c.H = 1
	}
	if c.geometry != General && (c.H != 1 || c.Delta != 0) {
		return nil, fmt.Errorf("adversary: %v construction: H=%d and Delta=%d must be 1 and 0", c.geometry, c.H, c.Delta)
	}
	roster, err := c.buildRoster()
	if err != nil {
		return nil, err
	}
	pairs := make([]workload.Pair, len(roster))
	for i, re := range roster {
		pairs[i] = workload.Pair{Src: c.node(re.src.X, re.src.Y), Dst: c.node(re.dst.X, re.dst.Y)}
	}
	net := c.newNet()
	if err := c.place(net, pairs); err != nil {
		return nil, err
	}
	// Roster entry i is PacketID i+1. Its role lives in the Class/Tag
	// columns, which an exchange swaps along with the destination.
	for kind := range c.roles {
		c.roles[kind] = make([][]sim.PacketID, c.Par.L+1)
	}
	for i, re := range roster {
		pk := sim.PacketID(i + 1)
		net.P.Class[pk] = uint8(re.kind)
		net.P.Tag[pk] = int32(re.i)
		if re.kind != KindNone {
			c.roles[re.kind][re.i] = append(c.roles[re.kind][re.i], pk)
		}
	}

	c.err, c.exchg, c.ver = nil, 0, nil
	if c.Verify {
		if c.ver, err = newVerifier(c, net); err != nil {
			return nil, err
		}
	}
	if !c.disableExchanges {
		c.sched = newSchedTable(net)
		net.SetExchange(c.exchangeHook)
	}
	// After each step, the first exchange or verifier error stops the run
	// (through ctx) and is reported ahead of the run's own error.
	ctx, stop := context.WithCancel(context.TODO())
	defer stop()
	var failed error
	after := func(net *sim.Network, step int) {
		if failed = c.err; failed == nil && c.ver != nil {
			failed = c.ver.check(step)
		}
		if failed != nil {
			stop()
		}
	}
	steps := c.Par.Steps()
	_, err = net.Run(ctx, alg, steps, after)
	if failed != nil {
		return nil, failed
	}
	if err != nil {
		return nil, err
	}
	net.SetExchange(nil)
	if c.ver != nil {
		if err := c.ver.corollary9(); err != nil {
			return nil, err
		}
	}

	// The constructed permutation: sources in placement order, which is
	// PacketID order, destinations as finally assigned.
	st := &net.P
	undeliv := 0
	for i := range pairs {
		p := sim.PacketID(i + 1)
		pairs[i].Dst = st.Dst[p]
		if Kind(st.Class[p]) != KindNone && !st.Delivered(p) {
			undeliv++
		}
	}
	return &Result{
		Par:             c.Par,
		Steps:           steps,
		Net:             net,
		Permutation:     pairs,
		Exchanges:       c.exchg,
		UndeliveredHard: undeliv,
	}, nil
}

// RunWithoutExchanges runs the same initial instance with the adversary's
// exchange rules disabled — the A1 ablation: the initial assignment alone,
// without the destination swaps, is a far easier instance.
func (c *Construction) RunWithoutExchanges(alg sim.Algorithm) (*Result, error) {
	c.disableExchanges = true
	defer func() { c.disableExchanges = false }()
	return c.Run(alg)
}

// exchangeHook applies the geometry's exchange rules to the scheduled moves
// of one step. A mover's role is read from its Class/Tag columns, which Run
// sets from the roster and exchange swaps with the destination, so they
// always equal kindOf(Dst) (padding packets are fixed points and never
// move); Verify mode asserts it.
func (c *Construction) exchangeHook(net *sim.Network, step int, moves []sim.Move) {
	if c.err != nil {
		return
	}
	st := &net.P
	// Scheduled targets, for partner eligibility.
	c.sched.record(step, moves)
	for _, m := range moves {
		kind, j := Kind(st.Class[m.P]), int(st.Tag[m.P])
		if c.ver != nil {
			if vk, vj := c.kindOf(st.Dst[m.P]); vk != kind || vj != j {
				c.err = fmt.Errorf("adversary: step %d: packet %d carries role %v_%d but its destination makes it %v_%d",
					step, m.P.ID(), kind, j, vk, vj)
				return
			}
		}
		if kind == KindNone {
			continue
		}
		r, ok := c.rule(c.local(m.To), m.Travel, kind, j, step)
		if !ok {
			continue
		}
		c.exchange(net, m.P, kind, j, r)
		if c.err != nil {
			c.err = fmt.Errorf("adversary: %v construction, step %d: %w", c.geometry, step, c.err)
			return
		}
	}
}

// exchange swaps the destination (and so the role) of p, currently of role
// (pKind, pIdx), with an eligible partner of role (r.kind, r.i): the first
// in role order or, for FarthestFirst, the westernmost (then southernmost).
func (c *Construction) exchange(net *sim.Network, p sim.PacketID, pKind Kind, pIdx int, r swapRole) {
	st := &net.P
	pool := c.roles[r.kind][r.i]
	best := -1
	var bestAt grid.Coord
	for idx, q := range pool {
		if q == p || st.Delivered(q) {
			continue
		}
		lc := c.local(st.At[q])
		if !c.inBox(lc, r.box) {
			continue
		}
		if to, ok := c.sched.target(q); ok {
			if tgt := c.local(to); r.kind == KindN && tgt.X == r.line || r.kind == KindE && tgt.Y == r.line {
				continue
			}
		}
		if c.geometry != FarthestFirst {
			best = idx
			break
		}
		if best < 0 || lc.X < bestAt.X || lc.X == bestAt.X && lc.Y < bestAt.Y {
			best, bestAt = idx, lc
		}
	}
	if best < 0 {
		c.err = fmt.Errorf("no eligible %v_%d partner for %v_%d packet %d (Lemma 3/4 violated — construction bug)",
			r.kind, r.i, pKind, pIdx, p.ID())
		return
	}
	partner := pool[best]
	net.ExchangeDst(p, partner)
	st.Class[p], st.Class[partner] = st.Class[partner], st.Class[p]
	st.Tag[p], st.Tag[partner] = st.Tag[partner], st.Tag[p]
	// Update the role index: p takes partner's slot and vice versa.
	pool[best] = p
	mine := c.roles[pKind][pIdx]
	for idx, q := range mine {
		if q == p {
			mine[idx] = partner
			break
		}
	}
	c.exchg++
}
