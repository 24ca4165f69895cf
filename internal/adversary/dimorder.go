package adversary

import (
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// DOParams holds the constants of the Section 5 dimension-order
// construction ("Dimension Order Routing", Figure 4 left), which forces
// Ω(n²/k) steps on any destination-exchangeable dimension-order router.
type DOParams struct {
	// N is the mesh side, K the queue size.
	N, K int
	// CN is c·n with 2/(5(k+2)) <= c <= 1/(2(k+2)).
	CN int
	// DN is d·n with 2/5 <= d <= 1/2.
	DN int
	// P is p = (k+1)·cn + dn, the number of N_i-packets per class.
	P int
	// L is ⌊l⌋ = ⌊(1-c)·c·n²/p⌋, the number of classes.
	L int
}

// Steps returns ⌊l⌋·d·n, the lower bound on delivery time.
func (p DOParams) Steps() int { return p.L * p.DN }

// NewDOParams computes the Section 5 dimension-order constants.
func NewDOParams(n, k int) (DOParams, error) {
	if k < 1 {
		return DOParams{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	cn := n / (2 * (k + 2))
	dn := n / 2
	if cn < 2 {
		return DOParams{}, fmt.Errorf("adversary: n = %d too small for k = %d (cn = %d)", n, k, cn)
	}
	p := (k+1)*cn + dn
	l := (n - cn) * cn / p
	par := DOParams{N: n, K: k, CN: cn, DN: dn, P: p, L: l}
	if par.L < 1 {
		return DOParams{}, fmt.Errorf("adversary: ⌊l⌋ = 0 for n=%d k=%d", n, k)
	}
	if par.L > cn {
		return DOParams{}, fmt.Errorf("adversary: l = %d exceeds the cn = %d destination columns", par.L, cn)
	}
	if par.P > n-cn {
		return DOParams{}, fmt.Errorf("adversary: p = %d exceeds the %d destination rows per column", par.P, n-cn)
	}
	return par, nil
}

// DOConstruction runs the dimension-order adversary: sources are the
// westernmost (1-c)n nodes of the cn southernmost rows; each sends a packet
// to the northernmost (1-c)n nodes of the cn easternmost columns. The
// single exchange rule keeps N_j-packets (j > i) out of the N_i-column
// during steps 1..i·dn.
type DOConstruction struct {
	// Par holds the constants.
	Par DOParams
	// Topo is the n×n mesh (or torus embedding with offsets, as in the
	// general construction).
	Topo grid.Topology
	// OffX, OffY embed the construction.
	OffX, OffY int
	// Verify enables per-step invariant checks.
	Verify bool
	// Queues selects the queue model of the network under test.
	Queues sim.QueueModel
	// NetK overrides the per-queue capacity (0 = Par.K); see
	// Construction.NetK.
	NetK int

	kindIdx [][]sim.PacketID // class i -> packets currently of class i
	sched   schedTable
	err     error
	exchg   int
	prevIn  []int
}

// NewDOConstruction prepares the dimension-order adversary for an n×n mesh.
func NewDOConstruction(n, k int) (*DOConstruction, error) {
	par, err := NewDOParams(n, k)
	if err != nil {
		return nil, err
	}
	return &DOConstruction{Par: par, Topo: grid.NewSquareMesh(n)}, nil
}

func (c *DOConstruction) local(id grid.NodeID) grid.Coord {
	g := c.Topo.CoordOf(id)
	return grid.XY(g.X-c.OffX, g.Y-c.OffY)
}

func (c *DOConstruction) node(x, y int) grid.NodeID {
	return c.Topo.ID(grid.XY(x+c.OffX, y+c.OffY))
}

// nCol returns the 0-based local column of the N_i-column (1-based column
// (1-c)n - 1 + i, adjusted so that class 1 owns the westernmost of the cn
// easternmost columns).
func (c *DOConstruction) nCol(i int) int { return c.Par.N - c.Par.CN + i - 1 }

// classOf classifies a destination: class i if it lies in the N_i-column
// north of the source band.
func (c *DOConstruction) classOf(dst grid.NodeID) int {
	lc := c.local(dst)
	if lc.Y < c.Par.CN {
		return 0
	}
	i := lc.X - (c.Par.N - c.Par.CN) + 1
	if i >= 1 && i <= c.Par.L {
		return i
	}
	return 0
}

// inBox reports membership in the i-box: west of and including the
// N_i-column, south of and including row cn (i = 0 means strictly west of
// the N_1-column).
func (c *DOConstruction) inBox(lc grid.Coord, i int) bool {
	if lc.Y >= c.Par.CN {
		return false
	}
	if i == 0 {
		return lc.X < c.nCol(1)
	}
	return lc.X <= c.nCol(i)
}

// Run executes the construction for ⌊l⌋·d·n steps against the algorithm
// and returns the constructed permutation.
func (c *DOConstruction) Run(alg sim.Algorithm) (*Result, error) {
	par := c.Par
	netK := c.NetK
	if netK == 0 {
		netK = par.K
	}
	net := sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               netK,
		Queues:          c.Queues,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
	c.kindIdx = make([][]sim.PacketID, par.L+1)

	// Sources row-major through the band; classes in ascending blocks of
	// p. Destinations: class i gets unique rows cn..cn+p-1 in its column.
	count := 0
	tPer := make([]int, par.L+1)
	for y := 0; y < par.CN && count < par.L*par.P; y++ {
		for x := 0; x < par.N-par.CN && count < par.L*par.P; x++ {
			i := 1 + count/par.P
			pk := net.NewPacket(c.node(x, y), c.node(c.nCol(i), par.CN+tPer[i]))
			net.P.Class[pk] = uint8(KindN)
			net.P.Tag[pk] = int32(i)
			if err := net.Place(pk); err != nil {
				return nil, err
			}
			c.kindIdx[i] = append(c.kindIdx[i], pk)
			tPer[i]++
			count++
		}
	}
	if count != par.L*par.P {
		return nil, fmt.Errorf("adversary: placed %d packets, want %d", count, par.L*par.P)
	}

	if c.Verify {
		c.prevIn = c.countInBoxes(net)
	}
	c.sched = newSchedTable(net)
	net.SetExchange(c.exchangeHook)
	for t := 0; t < par.Steps(); t++ {
		if err := net.StepOnce(alg); err != nil {
			return nil, err
		}
		if c.err != nil {
			return nil, c.err
		}
		if c.Verify {
			if err := c.check(net, t+1); err != nil {
				return nil, err
			}
		}
	}
	net.SetExchange(nil)

	st := &net.P
	perm := make([]workload.Pair, 0, count)
	undeliv := 0
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		perm = append(perm, workload.Pair{Src: st.Src[p], Dst: st.Dst[p]})
		if !st.Delivered(p) {
			undeliv++
		}
	}
	return &Result{
		Par:             Params{N: par.N, K: par.K, CN: par.CN, DN: par.DN, P: par.P, L: par.L},
		Steps:           par.Steps(),
		Net:             net,
		Permutation:     perm,
		Exchanges:       c.exchg,
		UndeliveredHard: undeliv,
	}, nil
}

// exchangeHook applies the single dimension-order exchange rule.
func (c *DOConstruction) exchangeHook(net *sim.Network, step int, moves []sim.Move) {
	if c.err != nil {
		return
	}
	st := &net.P
	c.sched.record(step, moves)
	for _, m := range moves {
		j := c.classOf(st.Dst[m.P])
		if j == 0 {
			continue
		}
		to := c.local(m.To)
		if m.Travel != grid.East || to.Y >= c.Par.CN {
			continue // only eastward entries within the band matter
		}
		i := to.X - (c.Par.N - c.Par.CN) + 1
		if i < 1 || i > c.Par.L || j <= i || step > i*c.Par.DN {
			continue
		}
		// Exchange with an N_i-packet in the (i-1)-box not scheduled to
		// enter the N_i-column.
		partner := sim.NoPacket
		var pidx int
		for idx, q := range c.kindIdx[i] {
			if q == m.P || st.Delivered(q) || !c.inBox(c.local(st.At[q]), i-1) {
				continue
			}
			if to, ok := c.sched.target(q); ok && c.local(to).X == c.nCol(i) {
				continue
			}
			partner = q
			pidx = idx
			break
		}
		if partner == sim.NoPacket {
			c.err = fmt.Errorf("adversary: step %d: no eligible N_%d partner (dim-order Lemma 3 analog violated)", step, i)
			return
		}
		net.ExchangeDst(m.P, partner)
		st.Tag[m.P], st.Tag[partner] = st.Tag[partner], st.Tag[m.P]
		c.kindIdx[i][pidx] = m.P
		for idx, q := range c.kindIdx[j] {
			if q == m.P {
				c.kindIdx[j][idx] = partner
				break
			}
		}
		c.exchg++
	}
}

// countInBoxes counts class-i packets inside the i-box, per class.
func (c *DOConstruction) countInBoxes(net *sim.Network) []int {
	st := &net.P
	cnt := make([]int, c.Par.L+1)
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		i := c.classOf(st.Dst[p])
		if i == 0 || st.Delivered(p) {
			continue
		}
		if c.inBox(c.local(st.At[p]), i) {
			cnt[i]++
		}
	}
	return cnt
}

// check validates the dimension-order analogues of Lemmas 1/2/5.
func (c *DOConstruction) check(net *sim.Network, t int) error {
	st := &net.P
	dn := c.Par.DN
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		j := c.classOf(st.Dst[p])
		if j == 0 || st.Delivered(p) {
			continue
		}
		lc := c.local(st.At[p])
		if lc.X > c.nCol(j) {
			return fmt.Errorf("adversary: step %d: N_%d packet %d east of its column at %v", t, j, p.ID(), lc)
		}
		// Lemma 5 analog: class j inside the (i0-2)-box, i0 the
		// smallest i > 1 with t <= (i-1)dn.
		if j >= 2 {
			i0 := (t+dn-1)/dn + 1
			if i0 >= 2 && i0 <= j && !c.inBox(lc, i0-2) {
				return fmt.Errorf("adversary: step %d: N_%d packet %d outside %d-box at %v", t, j, p.ID(), i0-2, lc)
			}
		}
	}
	cnt := c.countInBoxes(net)
	for i := 1; i <= c.Par.L; i++ {
		limit := 0
		switch {
		case t <= (i-1)*dn:
			limit = 0
		case t <= i*dn:
			limit = 1
		default:
			limit = c.prevIn[i]
		}
		if c.prevIn[i]-cnt[i] > limit {
			return fmt.Errorf("adversary: step %d: %d N_%d packets left the %d-box (limit %d)", t, c.prevIn[i]-cnt[i], i, i, limit)
		}
	}
	c.prevIn = cnt
	return nil
}

// Replay re-runs the constructed permutation without exchanges, verifies
// the Lemma 12 analogue and Theorem-13-style undeliverability, and returns
// the replay network.
func (c *DOConstruction) Replay(res *Result, alg sim.Algorithm) (*sim.Network, error) {
	netK := c.NetK
	if netK == 0 {
		netK = c.Par.K
	}
	net := sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               netK,
		Queues:          c.Queues,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
	for _, pr := range res.Permutation {
		if err := net.Place(net.NewPacket(pr.Src, pr.Dst)); err != nil {
			return nil, err
		}
	}
	for t := 0; t < res.Steps; t++ {
		if err := net.StepOnce(alg); err != nil {
			return nil, err
		}
	}
	if err := ConfigsEqual(res.Net, net); err != nil {
		return nil, fmt.Errorf("adversary: dim-order Lemma 12 equivalence failed: %w", err)
	}
	if net.Done() {
		return nil, fmt.Errorf("adversary: dim-order bound failed: delivered within %d steps", res.Steps)
	}
	return net, nil
}
