package adversary

import (
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

// Construction runs the Section 3 adversary against a routing algorithm on
// an n×n mesh (or embedded in a torus submesh). Create with NewConstruction.
type Construction struct {
	// Par holds the Section 4.3 constants.
	Par Params
	// Topo is the topology the construction runs on (an n×n mesh, or a
	// torus of side >= 2n for the Section 5 embedding).
	Topo grid.Topology
	// OffX, OffY place the construction's n×n submesh within Topo.
	OffX, OffY int
	// H is the h-h multiplicity (1 for permutation routing).
	H int
	// Verify enables per-step checking of Lemmas 1–8.
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
	// Leave 0 to use Par.K. Per the "Other Queue Types" simulation, a
	// node with four incoming queues of size k behaves like a central
	// queue of size 4k, so to attack such a router compute Params with
	// k_eff = 4k+1 (the +1 covers the origin packet) and set NetK = k.
	NetK int
	// Delta targets the Section 5 "Nonminimal extensions" class: the
	// router under test may move packets up to Delta nodes beyond their
	// source-destination rectangle (use NewDeltaConstruction).
	Delta int

	// kindIdx maps (kind, i) to the packets currently in that role.
	kindIdx map[kindKey][]sim.PacketID
	sched   schedTable

	disableExchanges bool
	err              error
	exchg            int
	ver              *verifier
}

type kindKey struct {
	kind Kind
	i    int
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
	// Permutation is the constructed permutation: every placed packet's
	// source with its final (post-exchange) destination, in placement
	// order.
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
	if err != nil {
		return nil, err
	}
	return &Construction{
		Par:  par,
		Topo: grid.NewSquareMesh(n),
		H:    1,
	}, nil
}

// NewDeltaConstruction prepares the Section 5 nonminimal-extension
// adversary for routers that stray at most delta beyond the
// source-destination rectangle (Ω(n²/((δ+1)³k²))).
func NewDeltaConstruction(n, k, delta int) (*Construction, error) {
	par, err := NewDeltaParams(n, k, delta)
	if err != nil {
		return nil, err
	}
	return &Construction{
		Par:   par,
		Topo:  grid.NewSquareMesh(n),
		H:     1,
		Delta: delta,
	}, nil
}

// NewHHConstruction prepares the Section 5 h-h adversary: h packets on each
// node of the 1-box, forcing Ω(h³n²/(k+h)²) steps. Packets beyond the queue
// capacity enter through the dynamic injection backlog, as the paper's
// dynamic-routing extension allows.
func NewHHConstruction(n, k, h int) (*Construction, error) {
	par, err := NewHHParams(n, k, h)
	if err != nil {
		return nil, err
	}
	return &Construction{
		Par:  par,
		Topo: grid.NewSquareMesh(n),
		H:    h,
	}, nil
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

// nCol returns the 0-based local column of the N_i-column (the paper's
// 1-based column cn-1+i).
func (c *Construction) nCol(i int) int { return c.Par.CN + i - 2 }

// eRow returns the 0-based local row of the E_i-row.
func (c *Construction) eRow(i int) int { return c.Par.CN + i - 2 }

// kindOf classifies a destination.
func (c *Construction) kindOf(dst grid.NodeID) (Kind, int) {
	lc := c.local(dst)
	cn, l := c.Par.CN, c.Par.L
	if lc.X >= cn-1 && lc.X <= cn+l-2 && lc.Y > lc.X {
		return KindN, lc.X - cn + 2
	}
	if lc.Y >= cn-1 && lc.Y <= cn+l-2 && lc.X > lc.Y {
		return KindE, lc.Y - cn + 2
	}
	return KindNone, 0
}

// inBox reports whether local coordinate lc lies in the i-box (i >= 0).
func (c *Construction) inBox(lc grid.Coord, i int) bool {
	if i == 0 {
		// 0-box: strictly west of the N_1-column and strictly south
		// of the E_1-row.
		return lc.X < c.nCol(1) && lc.Y < c.eRow(1)
	}
	return lc.X <= c.nCol(i) && lc.Y <= c.eRow(i)
}

// inBoxKind reports whether lc lies in the i-box extended by Delta on the
// kind's escape side: an N_i-packet may occupy the Delta columns east of
// the N_i-column (south of the E_i-row) before escaping; an E_i-packet the
// Delta rows north of the E_i-row.
func (c *Construction) inBoxKind(lc grid.Coord, kind Kind, i int) bool {
	if kind == KindN {
		return lc.X <= c.nCol(i)+c.Delta && lc.Y <= c.eRow(i)
	}
	return lc.Y <= c.eRow(i)+c.Delta && lc.X <= c.nCol(i)
}

// roster builds the construction packets in deterministic placement order:
// first the forced 1-box boundary packets, then the interior ones.
type rosterEntry struct {
	src  grid.Coord // local
	dst  grid.Coord // local
	kind Kind
	i    int
}

// buildRoster computes sources and destinations for all construction
// packets, following Step 1 of the construction:
//
//   - the N_1-column at or south of the E_1-row holds only N_1-packets,
//   - the E_1-row west of the N_1-column holds only E_1-packets,
//   - at most one packet per node (h per node for the h-h variant),
//   - N_i-packets get unique destination rows in the N_i-column outside
//     the i-box; E_i-packets symmetric.
func (c *Construction) buildRoster() ([]rosterEntry, error) {
	par := c.Par
	cn, p, l := par.CN, par.P, par.L

	// Destination assignment. For h-h, each destination node may receive
	// up to H packets.
	nDst := func(i, t int) grid.Coord { return grid.XY(c.nCol(i), c.eRow(i)+1+t/c.H) }
	eDst := func(i, t int) grid.Coord { return grid.XY(c.nCol(i)+1+t/c.H, c.eRow(i)) }

	var roster []rosterEntry
	nCount := make([]int, l+1) // packets emitted per class
	eCount := make([]int, l+1)

	emitN := func(src grid.Coord, i int) {
		roster = append(roster, rosterEntry{src: src, dst: nDst(i, nCount[i]), kind: KindN, i: i})
		nCount[i]++
	}
	emitE := func(src grid.Coord, i int) {
		roster = append(roster, rosterEntry{src: src, dst: eDst(i, eCount[i]), kind: KindE, i: i})
		eCount[i]++
	}

	// Forced boundary placement (h packets per node in the h-h variant).
	for y := 0; y < cn; y++ { // N_1-column, at or south of E_1-row
		for rep := 0; rep < c.H; rep++ {
			emitN(grid.XY(cn-1, y), 1)
		}
	}
	for x := 0; x < cn-1; x++ { // E_1-row, west of N_1-column
		for rep := 0; rep < c.H; rep++ {
			emitE(grid.XY(x, cn-1), 1)
		}
	}
	if nCount[1] > p || eCount[1] > p {
		return nil, fmt.Errorf("adversary: boundary needs more class-1 packets than p=%d allows", p)
	}

	// Interior cells (the 0-box), row-major, in class order.
	type need struct {
		kind Kind
		i    int
		n    int
	}
	var needs []need
	needs = append(needs, need{KindN, 1, p - nCount[1]}, need{KindE, 1, p - eCount[1]})
	for i := 2; i <= l; i++ {
		needs = append(needs, need{KindN, i, p}, need{KindE, i, p})
	}
	x, y, used := 0, 0, 0
	advance := func() {
		used++
		if used%c.H == 0 {
			x++
			if x > cn-2 {
				x = 0
				y++
			}
		}
	}
	for _, nd := range needs {
		for t := 0; t < nd.n; t++ {
			if y > cn-2 {
				return nil, fmt.Errorf("adversary: interior of 1-box overflowed")
			}
			if nd.kind == KindN {
				emitN(grid.XY(x, y), nd.i)
			} else {
				emitE(grid.XY(x, y), nd.i)
			}
			advance()
		}
	}
	return roster, nil
}

// Run executes the construction against a fresh instance of the algorithm
// produced by algFactory, for exactly ⌊l⌋·d·n steps, applying exchange
// rules EX1–EX4, and returns the constructed permutation.
//
// The network is built with RequireMinimal and CheckInvariants enabled:
// a non-minimal or overflowing algorithm fails the run. K is the queue
// capacity the Params were computed for.
func (c *Construction) Run(alg sim.Algorithm) (*Result, error) {
	if c.H < 1 {
		c.H = 1
	}
	roster, err := c.buildRoster()
	if err != nil {
		return nil, err
	}
	netK := c.NetK
	if netK == 0 {
		netK = c.Par.K
	}
	net := sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               netK,
		Queues:          c.Queues,
		RequireMinimal:  c.Delta == 0,
		MaxStray:        c.Delta,
		CheckInvariants: true,
	})

	c.kindIdx = make(map[kindKey][]sim.PacketID)
	usedSrc := map[grid.NodeID]bool{}
	usedDst := map[grid.NodeID]bool{}
	perSrc := map[grid.NodeID]int{}
	for _, re := range roster {
		src := c.node(re.src.X, re.src.Y)
		dst := c.node(re.dst.X, re.dst.Y)
		pk := net.NewPacket(src, dst)
		net.P.Class[pk] = uint8(re.kind)
		net.P.Tag[pk] = int32(re.i)
		// The first K packets of a node fit its queue; extras enter
		// via the dynamic injection backlog (h-h with h > k).
		if perSrc[src] < netK {
			if err := net.Place(pk); err != nil {
				return nil, err
			}
		} else {
			net.QueueInjection(pk, 1)
		}
		perSrc[src]++
		usedSrc[src] = true
		usedDst[dst] = true
		key := kindKey{re.kind, re.i}
		c.kindIdx[key] = append(c.kindIdx[key], pk)
	}
	perm := make([]workload.Pair, 0, len(roster))

	if c.PadIdentity && c.H == 1 {
		for id := grid.NodeID(0); int(id) < c.Topo.N(); id++ {
			if !usedSrc[id] && !usedDst[id] {
				if err := net.Place(net.NewPacket(id, id)); err != nil {
					return nil, err
				}
			}
		}
	}

	if c.Verify {
		c.ver = newVerifier(c, net)
	}

	if !c.disableExchanges {
		c.sched = newSchedTable(net)
		net.SetExchange(c.exchangeHook)
	}
	steps := c.Par.Steps()
	for t := 0; t < steps; t++ {
		if err := net.StepOnce(alg); err != nil {
			return nil, err
		}
		if c.err != nil {
			return nil, c.err
		}
		if c.ver != nil {
			if err := c.ver.check(t + 1); err != nil {
				return nil, err
			}
		}
	}
	net.SetExchange(nil)

	// Corollary 9, quantitatively: at least p - dn packets of each of
	// N_l and E_l (p - (delta+1)dn in the nonminimal extension) remain in
	// the l-box, hence undelivered.
	if c.ver != nil {
		nc, ec := c.ver.countInBoxes()
		min := c.Par.P - (c.Delta+1)*c.Par.DN
		if nc[c.Par.L] < min || ec[c.Par.L] < min {
			return nil, fmt.Errorf("adversary: Corollary 9 violated: %d N_%d and %d E_%d packets in the %d-box, want >= %d each",
				nc[c.Par.L], c.Par.L, ec[c.Par.L], c.Par.L, c.Par.L, min)
		}
	}

	// Record the constructed permutation (sources in placement order, which
	// is PacketID order, destinations as finally assigned).
	st := &net.P
	undeliv := 0
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		if Kind(st.Class[p]) != KindNone {
			perm = append(perm, workload.Pair{Src: st.Src[p], Dst: st.Dst[p]})
			if !st.Delivered(p) {
				undeliv++
			}
		}
	}

	return &Result{
		Par:             c.Par,
		Steps:           steps,
		Net:             net,
		Permutation:     perm,
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

// exchangeHook applies rules EX1–EX4 to the scheduled moves of one step. A
// mover's role is read from its Class/Tag columns, which Run sets from the
// roster and exchange swaps with the destination, so they always equal
// kindOf(Dst) (padding packets are fixed points and never move); Verify
// mode asserts it.
func (c *Construction) exchangeHook(net *sim.Network, step int, moves []sim.Move) {
	if c.err != nil {
		return
	}
	st := &net.P
	// Scheduled targets, for partner eligibility ("not scheduled to enter
	// the N_i-column").
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
		to := c.local(m.To)
		cn, l := c.Par.CN, c.Par.L

		// Entering the N_i-column south of the E_i-row?
		if i := to.X - cn + 2; i >= 1 && i <= l && to.Y < to.X && step <= i*c.Par.DN {
			// EX2: N_j, j > i.  EX3: E_j, j >= i.
			if (kind == KindN && j > i) || (kind == KindE && j >= i) {
				c.exchange(net, m.P, KindN, i, kind, j, step)
				continue
			}
		}
		// Entering the E_i-row west of the N_i-column?
		if i := to.Y - cn + 2; i >= 1 && i <= l && to.X < to.Y && step <= i*c.Par.DN {
			// EX1: E_j, j > i.  EX4: N_j, j >= i.
			if (kind == KindE && j > i) || (kind == KindN && j >= i) {
				c.exchange(net, m.P, KindE, i, kind, j, step)
			}
		}
	}
}

// exchange swaps the destination of p with an eligible partner of kind
// (wantKind, i): a packet in the (i-1)-box not scheduled to enter the
// N_i-column (for KindN) or the E_i-row (for KindE).
func (c *Construction) exchange(net *sim.Network, p sim.PacketID, wantKind Kind, i int, pKind Kind, pIdx int, step int) {
	st := &net.P
	key := kindKey{wantKind, i}
	partner := sim.NoPacket
	var pi int
	for idx, q := range c.kindIdx[key] {
		if q == p || st.Delivered(q) {
			continue
		}
		if !c.inBox(c.local(st.At[q]), i-1) {
			continue
		}
		if to, ok := c.sched.target(q); ok {
			tgt := c.local(to)
			if wantKind == KindN && tgt.X == c.nCol(i) {
				continue
			}
			if wantKind == KindE && tgt.Y == c.eRow(i) {
				continue
			}
		}
		partner = q
		pi = idx
		break
	}
	if partner == sim.NoPacket {
		c.err = fmt.Errorf("adversary: step %d: no eligible %v_%d partner for %v_%d packet %d (Lemma 3/4 violated — construction bug)",
			step, wantKind, i, pKind, pIdx, p.ID())
		return
	}
	// Swap destinations (and, equivalently, roles).
	net.ExchangeDst(p, partner)
	st.Class[p], st.Class[partner] = st.Class[partner], st.Class[p]
	st.Tag[p], st.Tag[partner] = st.Tag[partner], st.Tag[p]
	// Update the role index: p takes partner's slot and vice versa.
	pkey := kindKey{pKind, pIdx}
	c.kindIdx[key][pi] = p
	for idx, q := range c.kindIdx[pkey] {
		if q == p {
			c.kindIdx[pkey][idx] = partner
			break
		}
	}
	c.exchg++
}
