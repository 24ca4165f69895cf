// Package clt implements the O(n)-time, O(1)-queue-size minimal adaptive
// routing algorithm of Chinn, Leighton and Tompa, Section 6 (Theorem 34).
//
// The algorithm routes any permutation on the n×n mesh in at most 972n
// steps (564n with the improved constant after Theorem 34) with at most 834
// packets in any node, while every packet follows a minimal path. It is
// NOT destination-exchangeable — it uses the distances each packet still
// has to travel — which is exactly the escape hatch Theorem 14 leaves open.
//
// Structure (Section 6.1): the four packet classes (NE, NW, SE, SW) are
// routed one after another. Each class pass runs iterations j = 0, 1, ...
// with tiles of side m = n/3^j; each iteration performs a Vertical Phase on
// each of three shifted tilings (Lemma 19), then a Horizontal Phase on
// each; each phase is March → Sort-and-Smooth → Balancing (the 2-rule).
// When m < 27 the pass finishes with the dimension-order farthest-first
// base case (Lemma 32).
//
// The implementation simulates every phase step by step under the paper's
// movement and priority rules, so peak queue occupancy is measured, and it
// checks each phase's duration against the closed forms of Lemmas 29-31.
// Phases are globally synchronized by a phase clock, as the paper allows
// ("every node knows how long it will take and can delay that long").
//
// "One after another" is the network's schedule, not the simulator's: the
// four class passes never meet (see classRun), so Route simulates them side
// by side on as many processors as it has and reports them in class order,
// bit for bit what simulating them in turn reports.
package clt

import (
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/par"
	"meshroute/internal/workload"
)

// QBase is q = 17·(27-3), the March capacity constant of Section 6.3.
const QBase = 408

// QImproved is q = 17·(9-3), valid for iterations j >= 1 (the improvement
// noted after Theorem 34 that brings the time bound from 972n to 564n).
const QImproved = 102

// Class identifies a packet's quadrant class.
type Class uint8

// The four classes, routed in this order.
const (
	NE Class = iota
	NW
	SE
	SW
	numClasses
)

var classNames = [...]string{"NE", "NW", "SE", "SW"}

// String returns the class name.
func (c Class) String() string { return classNames[c] }

// ClassOf assigns a source/destination pair to its quadrant class:
// NE takes dx >= 0, dy >= 0 (northeast, directly north, directly east);
// the others partition the remaining quadrants with their boundaries.
func ClassOf(src, dst grid.Coord) Class {
	dx, dy := dst.X-src.X, dst.Y-src.Y
	switch {
	case dx >= 0 && dy >= 0:
		return NE
	case dx < 0 && dy >= 0:
		return NW
	case dx > 0 && dy < 0:
		return SE
	default:
		return SW
	}
}

// Config configures a Router.
type Config struct {
	// N is the mesh side. It must be 27·3^j, or less than 27 (pure base
	// case).
	N int
	// ImprovedQ uses q = 102 for iterations j >= 1 (the 564n variant).
	ImprovedQ bool
	// Verify enables the more expensive invariant checks (Lemma 16's
	// prefix property after every Sort-and-Smooth).
	Verify bool
	// Sink, when non-nil, receives one obs.Span per March /
	// Sort-and-Smooth / Balancing phase and per base case, carrying the
	// measured quiescence time and the Lemma 29-32 closed form, so the
	// per-phase bounds can be checked from a recorded run.
	Sink obs.Sink
}

// PhaseStats records one phase kind's accumulated durations.
type PhaseStats struct {
	// Formula is the synchronized schedule length from Lemmas 29-31.
	Formula int
	// Measured is the number of steps until the phase went quiescent.
	Measured int
}

// Result reports a routing run.
type Result struct {
	// N is the mesh side.
	N int
	// Packets is the number of packets routed.
	Packets int
	// TimeFormula is the total synchronized schedule length — the
	// quantity Theorem 34 bounds by 972n (564n with ImprovedQ).
	TimeFormula int
	// TimeMeasured sums the measured quiescence times of all phases (a
	// lower estimate of the schedule with early phase termination).
	TimeMeasured int
	// MaxQueue is the peak number of packets in any node at any step —
	// Lemma 28 bounds it by 834 (2q + 18).
	MaxQueue int
	// BaseCaseSteps is the total step count of the four base cases.
	BaseCaseSteps int
	// March, SortSmooth, Balance accumulate per-phase durations.
	March, SortSmooth, Balance PhaseStats
	// Iterations is the number of tile refinements per pass.
	Iterations int
}

// pt is a real mesh coordinate in the 32 bits the slabs store.
type pt struct{ X, Y int32 }

func at(c grid.Coord) pt { return pt{int32(c.X), int32(c.Y)} }

func (p pt) coord() grid.Coord { return grid.XY(int(p.X), int(p.Y)) }

// pkt is a packet in flight. A class's packets live in one slab, in
// permutation order.
type pkt struct {
	id   int32
	cur  pt // real coordinates
	dst  pt // real coordinates
	done bool
	// hops counts link traversals; the pass closes by checking that it
	// equals the L1 source-destination distance (minimality).
	hops int32
}

// act is a packet taking part in the current phase, with what the phase
// reads every step cached beside its slab index: position and destination
// in algorithm space relative to the packet's tile (the whole mesh in the
// base case), the destination strip, and March's last-move stamp.
type act struct {
	k            int32 // index into the class's slab
	tile         int32 // row-major index of the tile
	id           int32
	x, y, dx, dy int32
	strip        int32 // destination strip i, 1-based
	// lastMove is the step-within-phase of the packet's last move
	// (March's "prefer the packet received from the south" rule).
	lastMove int32
}

// farther reports whether a packet with dist still to go and the given id
// goes before another under "farthest first, lowest id on ties" — the
// selection rule of Sort-and-Smooth, Balancing and the base case.
func farther(dist, id, otherDist, otherID int32) bool {
	return dist > otherDist || (dist == otherDist && id < otherID)
}

// Router routes permutations with the Section 6 algorithm. It keeps the
// state of its last Route and is not safe for concurrent Route calls.
type Router struct {
	cfg Config
	n   int

	// runs are the four class passes of the current Route.
	runs [numClasses]classRun

	// spanHook, when non-nil, is called from the class's own task at each
	// of its spans, before the class clock advances (the white-box digest
	// test snapshots the class state there).
	spanHook func(*classRun)
}

// classRun is the pass of one quadrant class, a simulation of its own.
// While class c moves, every earlier class has been delivered and has left
// the network and every later class still waits at its sources, which are
// distinct; so all that c ever sees of the others is a constant of the
// permutation, folded into occ when the run is set up. The four runs share
// nothing they write and Route runs them side by side.
type classRun struct {
	r     *Router
	n     int
	class Class

	pkts []pkt
	// occ counts, per real node, the class's in-flight packets plus the
	// later classes' packets waiting at their sources. Lemma 28 bounds a
	// node's load by 834.
	occ []int16

	// clock is the class's phase clock: the sum of the formula durations
	// of the phases it has emitted so far.
	clock int
	// spans buffers the class's spans (Start on the class clock) until
	// Route re-emits them in class order; only kept with a Config.Sink.
	spans []obs.Span
	// res is the class's share of the Result (N and Packets unset).
	res Result

	// Phase scratch, sized once per pass. Every phase leaves cnt zero and
	// goEast/goNorth at -1.
	acts, found []act   // the phase's actives in phase order / as found
	count       []int32 // gather's counting sort: actives per tile column
	east, north pt      // one algorithm-space hop east / north, in real space
	cnt         []int16 // March: [row][strip] actives; Balancing: actives per node
	goEast      []int32 // per node: the act chosen to move east this step
	goNorth     []int32 // per node (March: per row): likewise north
	live, moves []int32
	sending     []uint64  // base case: bitset of the nodes that transmit this step
	hold, fq    [][]int32 // Sort-and-Smooth: per strip node, indices into the stream
	head, recv  []int32   // fq read positions; packets received per strip i-2 node
	sends       []send

	// Neighbouring runs' written fields (MaxQueue, the scratch slice
	// headers) must not share a cache line: without the pad an n=81 route
	// on two cores takes 6.8-7.7 ms instead of 6.1-6.4.
	_ [64]byte
}

// emitSpan records one completed phase (if anyone listens) and advances
// the class clock by the phase's synchronized duration.
func (c *classRun) emitSpan(name, axis string, iter, tau, measured, formula int) {
	if c.r.cfg.Sink != nil {
		c.spans = append(c.spans, obs.Span{
			Name: name, Class: c.class.String(), Axis: axis,
			Iteration: iter, Tiling: tau,
			Start: c.clock, Measured: measured, Formula: formula,
		})
	}
	if c.r.spanHook != nil {
		c.r.spanHook(c)
	}
	c.clock += formula
}

// New creates a router for an n×n mesh: n < 27 (pure base case) or
// n = 27·3^j.
func New(cfg Config) (*Router, error) {
	n := cfg.N
	if n < 1 {
		return nil, fmt.Errorf("clt: invalid n = %d", n)
	}
	m := n
	for m > 27 && m%3 == 0 {
		m /= 3
	}
	if n >= 27 && m != 27 {
		return nil, fmt.Errorf("clt: n = %d is not a power of 3", n)
	}
	return &Router{cfg: cfg, n: n}, nil
}

// run clears class's run and sizes its slab and per-packet scratch for
// packets packets, the rest of the scratch for the whole mesh as one tile.
func (r *Router) run(class Class, packets int) *classRun {
	n := r.n
	c := &r.runs[class]
	*c = classRun{r: r, n: n, class: class}
	c.pkts = make([]pkt, 0, packets)
	c.occ = make([]int16, n*n)
	c.acts, c.found = make([]act, 0, packets), make([]act, 0, packets)
	// gather counts per tile column: (n/m+1)² tiles of m columns, which
	// the whole-mesh tiling or the finest one (m = 27) makes largest.
	c.count = make([]int32, max(4*n, (n/27+1)*(n/27+1)*27)+1)
	c.cnt = make([]int16, n*max(n, 29))
	c.goEast, c.goNorth = make([]int32, n*n), make([]int32, n*n)
	for i := range c.goEast {
		c.goEast[i], c.goNorth[i] = -1, -1
	}
	c.sending = make([]uint64, n*n/64+1)
	strip := n/27 + 1 // strip nodes are numbered 1..d, d <= n/27
	c.hold, c.fq = make([][]int32, strip), make([][]int32, strip)
	c.head, c.recv = make([]int32, strip), make([]int32, strip)
	return c
}

// place puts packet id of the run's class into the network at cur.
func (c *classRun) place(id int, cur, dst grid.Coord) {
	c.pkts = append(c.pkts, pkt{id: int32(id), cur: at(cur), dst: at(dst)})
	c.occ[c.nid(at(cur))]++
}

// unrouted marks a pair that needs no routing (source = destination) in
// classify's table.
const unrouted = int8(-1)

// classify checks that perm is a partial permutation of the mesh and
// returns every pair's class (unrouted for a fixed point, which is
// delivered at placement) and the class sizes.
func (r *Router) classify(perm *workload.Permutation) ([]int8, [numClasses]int, error) {
	var sizes [numClasses]int
	topo := grid.NewSquareMesh(r.n)
	nodes := grid.NodeID(r.n * r.n)
	classes := make([]int8, len(perm.Pairs))
	for i, pr := range perm.Pairs {
		if pr.Src < 0 || pr.Src >= nodes || pr.Dst < 0 || pr.Dst >= nodes {
			return nil, sizes, fmt.Errorf("clt: pair %d -> %d is outside the %d×%d mesh", pr.Src, pr.Dst, r.n, r.n)
		}
		if pr.Src == pr.Dst {
			classes[i] = unrouted
			continue
		}
		class := ClassOf(topo.CoordOf(pr.Src), topo.CoordOf(pr.Dst))
		classes[i] = int8(class)
		sizes[class]++
	}
	return classes, sizes, perm.Validate()
}

// Route routes the permutation and returns the run statistics.
func (r *Router) Route(perm *workload.Permutation) (*Result, error) {
	classes, sizes, err := r.classify(perm)
	if err != nil {
		return nil, err
	}
	topo := grid.NewSquareMesh(r.n)
	return r.forkJoin(func(class Class) error {
		c := r.run(class, sizes[class])
		for i, of := range classes {
			if of < int8(class) {
				continue // unrouted, or delivered before this pass opens
			}
			if pr := perm.Pairs[i]; of == int8(class) {
				c.place(i, topo.CoordOf(pr.Src), topo.CoordOf(pr.Dst))
			} else {
				c.occ[pr.Src]++ // a later class's, waiting at its source (node ids are row-major, as nid)
			}
		}
		if err := c.route(); err != nil {
			return err
		}
		// The pass closes with every packet delivered along a minimal path.
		for k := range c.pkts {
			p, pr := &c.pkts[k], perm.Pairs[c.pkts[k].id]
			if !p.done {
				return fmt.Errorf("clt: packet %d undelivered at %v (dst %v)", p.id, p.cur.coord(), p.dst.coord())
			}
			if minimal := topo.Dist(pr.Src, pr.Dst); int(p.hops) != minimal {
				return fmt.Errorf("clt: packet %d took %d hops, a minimal path has %d", p.id, p.hops, minimal)
			}
		}
		return nil
	})
}

// forkJoin runs pass for each class — as many at a time as there are
// processors, one after another on one — and merges the runs in class
// order into what routing the classes one after another reports: times,
// phase statistics and base-case steps add, the peak queue and the
// iteration count are the largest, and each class's spans go to the sink
// shifted by the earlier classes' clocks. A failed class ends the merge:
// the sink has then seen the spans up to the failure and no later class's.
func (r *Router) forkJoin(pass func(Class) error) (*Result, error) {
	var errs [numClasses]error // reported in the merge, after the class's spans
	_ = par.ForEach(int(numClasses), 0, func(i int) error {
		errs[i] = pass(Class(i))
		return nil
	})
	res := Result{N: r.n}
	for i := range r.runs {
		c := &r.runs[i]
		for _, sp := range c.spans {
			sp.Start += res.TimeFormula
			r.cfg.Sink.Span(sp)
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
		res.Packets += len(c.pkts)
		res.TimeFormula += c.res.TimeFormula
		res.TimeMeasured += c.res.TimeMeasured
		res.MaxQueue = max(res.MaxQueue, c.res.MaxQueue)
		res.BaseCaseSteps += c.res.BaseCaseSteps
		res.March.add(c.res.March)
		res.SortSmooth.add(c.res.SortSmooth)
		res.Balance.add(c.res.Balance)
		res.Iterations = max(res.Iterations, c.res.Iterations)
	}
	return &res, nil
}

func (s *PhaseStats) add(o PhaseStats) {
	s.Formula += o.Formula
	s.Measured += o.Measured
}

// nid maps a real coordinate to a node index.
func (c *classRun) nid(p pt) int { return int(p.Y)*c.n + int(p.X) }

// noteOccupancy refreshes the peak queue statistic for one node.
func (c *classRun) noteOccupancy(id int) {
	if occ := int(c.occ[id]); occ > c.res.MaxQueue {
		c.res.MaxQueue = occ
	}
}

// route runs the class's full pass.
func (c *classRun) route() error {
	// The pass opens by taking stock of the nodes its packets wait in.
	for k := range c.pkts {
		c.noteOccupancy(c.nid(c.pkts[k].cur))
	}

	iter := 0
	for m := c.n; m >= 27; m /= 3 {
		d := m / 27
		q := QBase
		if c.r.cfg.ImprovedQ && iter > 0 {
			q = QImproved
		}
		tilings := 1
		if iter > 0 {
			tilings = 3
		}
		// Vertical Phase on each tiling, then Horizontal Phase on each.
		for _, vertical := range []bool{true, false} {
			for tau := 0; tau < tilings; tau++ {
				if err := c.phase(vertical, m, d, q, tau, iter); err != nil {
					return err
				}
			}
		}
		iter++
	}
	c.res.Iterations = iter
	return c.baseCase(iter > 0)
}
