package adversary

import (
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// FFParams holds the constants of the Section 5 farthest-first construction
// (Figure 4 right): p = (2k+1)cn + dn, l = c·n²/p, with
// 1/(5(k+1)) <= c <= 1/(4(k+1)) and 2/5 <= d <= 1/2. It forces Ω(n²/k)
// steps on dimension-order routing with the farthest-first outqueue policy
// — an algorithm that is NOT destination-exchangeable, since it inspects
// full remaining distances.
type FFParams struct {
	// N is the mesh side, K the queue size.
	N, K int
	// CN is c·n.
	CN int
	// DN is d·n.
	DN int
	// P is p = (2k+1)·cn + dn.
	P int
	// L is ⌊l⌋ = ⌊c·n²/p⌋.
	L int
}

// Steps returns ⌊l⌋·d·n.
func (p FFParams) Steps() int { return p.L * p.DN }

// NewFFParams computes the farthest-first construction constants.
func NewFFParams(n, k int) (FFParams, error) {
	if k < 1 {
		return FFParams{}, fmt.Errorf("adversary: k = %d, need k >= 1", k)
	}
	cn := n / (4 * (k + 1))
	dn := n / 2
	if cn < 2 {
		return FFParams{}, fmt.Errorf("adversary: n = %d too small for k = %d (cn = %d)", n, k, cn)
	}
	p := (2*k+1)*cn + dn
	l := cn * n / p
	par := FFParams{N: n, K: k, CN: cn, DN: dn, P: p, L: l}
	if par.L < 1 {
		return FFParams{}, fmt.Errorf("adversary: ff ⌊l⌋ = 0 for n=%d k=%d", n, k)
	}
	if par.P > n-cn {
		return FFParams{}, fmt.Errorf("adversary: ff p = %d exceeds %d destination rows", par.P, n-cn)
	}
	if par.L >= n-cn {
		return FFParams{}, fmt.Errorf("adversary: ff l = %d leaves no room for columns", par.L)
	}
	return par, nil
}

// FFConstruction is the Section 5 adversary for the farthest-first
// dimension-order router. The N_i-column is column n+1-i (1-based; the
// easternmost column is N_1's). Every node of the cn southernmost rows
// sends one packet; the initial arrangement puts higher classes strictly
// west of lower classes within each row, and the single exchange rule keeps
// that invariant while delaying every class j until its epoch:
//
//	For i >= 1, j > i: if an N_j-packet is scheduled to enter the
//	N_j-column during steps 1..i·dn, exchange it with the westernmost-
//	in-its-row N_{j-1}-packet in the (j+1)-box that is not scheduled to
//	enter the N_j-column.
type FFConstruction struct {
	// Par holds the constants.
	Par FFParams
	// Topo is the n×n mesh.
	Topo grid.Topology
	// Verify enables invariant checks (row sortedness, box containment).
	Verify bool

	kindIdx [][]sim.PacketID
	sched   schedTable
	err     error
	exchg   int
}

// NewFFConstruction prepares the farthest-first adversary.
func NewFFConstruction(n, k int) (*FFConstruction, error) {
	par, err := NewFFParams(n, k)
	if err != nil {
		return nil, err
	}
	return &FFConstruction{Par: par, Topo: grid.NewSquareMesh(n)}, nil
}

// nCol returns the 0-based column of the N_i-column (1-based column n+1-i).
func (c *FFConstruction) nCol(i int) int { return c.Par.N - i }

// classOf maps a destination to its class (0 for padding).
func (c *FFConstruction) classOf(dst grid.NodeID) int {
	lc := c.Topo.CoordOf(dst)
	if lc.Y < c.Par.CN {
		return 0
	}
	i := c.Par.N - lc.X
	if i >= 1 && i <= c.Par.L {
		return i
	}
	return 0
}

// inBox reports membership in the i-box: west of and including the
// N_i-column, south of and including row cn.
func (c *FFConstruction) inBox(lc grid.Coord, i int) bool {
	return lc.Y < c.Par.CN && lc.X <= c.nCol(i)
}

// Run executes the construction for ⌊l⌋·d·n steps against the (general,
// distance-inspecting) algorithm and returns the constructed permutation.
func (c *FFConstruction) Run(alg sim.Algorithm) (*Result, error) {
	par := c.Par
	net := sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               par.K,
		Queues:          sim.CentralQueue,
		RequireMinimal:  true,
		CheckInvariants: true,
	})
	c.kindIdx = make([][]sim.PacketID, par.L+1)

	// Classes assigned east to west so that, within every row, class
	// indices are nondecreasing westward (invariant (b)), and no
	// N_i-packet starts in the N_i-column for i >= 2 (invariant (a)).
	q := 0
	tPer := make([]int, par.L+1)
	for x := par.N - 1; x >= 0; x-- {
		for y := 0; y < par.CN; y++ {
			src := c.Topo.ID(grid.XY(x, y))
			i := 1 + q/par.P
			q++
			if i > par.L {
				// Remaining band sources are identity padding.
				if err := net.Place(net.NewPacket(src, src)); err != nil {
					return nil, err
				}
				continue
			}
			pk := net.NewPacket(src, c.Topo.ID(grid.XY(c.nCol(i), par.CN+tPer[i])))
			net.P.Class[pk] = uint8(KindN)
			net.P.Tag[pk] = int32(i)
			if err := net.Place(pk); err != nil {
				return nil, err
			}
			c.kindIdx[i] = append(c.kindIdx[i], pk)
			tPer[i]++
		}
	}
	if c.Verify {
		if err := c.check(net, 0); err != nil {
			return nil, err
		}
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
	perm := make([]workload.Pair, 0, net.TotalPackets())
	undeliv := 0
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		perm = append(perm, workload.Pair{Src: st.Src[p], Dst: st.Dst[p]})
		if c.classOf(st.Dst[p]) != 0 && !st.Delivered(p) {
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

// exchangeHook applies the farthest-first exchange rule.
func (c *FFConstruction) exchangeHook(net *sim.Network, step int, moves []sim.Move) {
	if c.err != nil {
		return
	}
	st := &net.P
	c.sched.record(step, moves)
	for _, m := range moves {
		j := c.classOf(st.Dst[m.P])
		if j < 2 {
			continue
		}
		to := c.Topo.CoordOf(m.To)
		// Scheduled to enter the N_j-column (eastward, within the band)
		// during steps 1..(j-1)·dn?
		if m.Travel != grid.East || to.Y >= c.Par.CN || to.X != c.nCol(j) || step > (j-1)*c.Par.DN {
			continue
		}
		// Partner: westernmost-in-its-row N_{j-1}-packet in the
		// (j+1)-box not scheduled to enter the N_j-column.
		partner := sim.NoPacket
		var pidx int
		for idx, qp := range c.kindIdx[j-1] {
			if qp == m.P || st.Delivered(qp) {
				continue
			}
			lc := c.Topo.CoordOf(st.At[qp])
			if !c.inBox(lc, j+1) {
				continue
			}
			if to, ok := c.sched.target(qp); ok && c.Topo.CoordOf(to).X == c.nCol(j) {
				continue
			}
			if partner == sim.NoPacket {
				partner, pidx = qp, idx
				continue
			}
			plc := c.Topo.CoordOf(st.At[partner])
			if lc.X < plc.X || (lc.X == plc.X && lc.Y < plc.Y) {
				partner, pidx = qp, idx
			}
		}
		if partner == sim.NoPacket {
			c.err = fmt.Errorf("adversary: step %d: no eligible N_%d partner (ff construction)", step, j-1)
			return
		}
		net.ExchangeDst(m.P, partner)
		st.Tag[m.P], st.Tag[partner] = st.Tag[partner], st.Tag[m.P]
		c.kindIdx[j-1][pidx] = m.P
		for idx, qp := range c.kindIdx[j] {
			if qp == m.P {
				c.kindIdx[j][idx] = partner
				break
			}
		}
		c.exchg++
	}
}

// check validates the row-sortedness invariant: within every band row, for
// j > i, no N_j-packet is further east than any N_i-packet.
func (c *FFConstruction) check(net *sim.Network, t int) error {
	// easternmost[row][class] tracking via two passes: record the
	// easternmost position per (row, class) and the westernmost per
	// (row, class), then compare.
	type key struct{ row, class int }
	eastmost := map[key]int{}
	westmost := map[key]int{}
	st := &net.P
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		j := c.classOf(st.Dst[p])
		if j == 0 || st.Delivered(p) {
			continue
		}
		lc := c.Topo.CoordOf(st.At[p])
		if lc.X > c.nCol(j) {
			return fmt.Errorf("adversary: step %d: ff N_%d packet %d east of its column at %v", t, j, p.ID(), lc)
		}
		if lc.Y >= c.Par.CN || lc.X == c.nCol(j) {
			// Climbing (or waiting in) its own column: the packet has
			// finished its row phase, so the row invariant no longer
			// constrains it.
			continue
		}
		k := key{lc.Y, j}
		if e, ok := eastmost[k]; !ok || lc.X > e {
			eastmost[k] = lc.X
		}
		if w, ok := westmost[k]; !ok || lc.X < w {
			westmost[k] = lc.X
		}
	}
	for k, e := range eastmost {
		for i := 1; i < k.class; i++ {
			if w, ok := westmost[key{k.row, i}]; ok && e > w {
				return fmt.Errorf("adversary: step %d: row %d: N_%d at x=%d east of N_%d at x=%d",
					t, k.row, k.class, e, i, w)
			}
		}
	}
	return nil
}

// Replay re-runs the constructed permutation without exchanges and checks
// that undelivered packets remain at the bound. For farthest-first the
// configuration-equality argument is the paper's row-sortedness invariant
// rather than Lemma 10; ConfigsEqual is still checked and any difference is
// reported in the returned error.
func (c *FFConstruction) Replay(res *Result, alg sim.Algorithm) (*sim.Network, error) {
	net := sim.MustNew(sim.Config{
		Topo:            c.Topo,
		K:               c.Par.K,
		Queues:          sim.CentralQueue,
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
		return nil, fmt.Errorf("adversary: ff replay equivalence failed: %w", err)
	}
	if net.Done() {
		return nil, fmt.Errorf("adversary: ff bound failed: delivered within %d steps", res.Steps)
	}
	return net, nil
}
