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
package clt

import (
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
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

// pkt is a packet in flight. Packets live in one slab, in permutation
// order.
type pkt struct {
	id    int
	cur   grid.Coord // real coordinates
	dst   grid.Coord // real coordinates
	class Class
	done  bool
	// hops counts link traversals; Route checks that it equals the L1
	// source-destination distance on delivery (minimality).
	hops int
}

// act is a packet taking part in the current phase, with what the phase
// reads every step cached beside the pointer: position and destination in
// algorithm space relative to the packet's tile (the whole mesh in the base
// case), the destination strip, and March's last-move stamp.
type act struct {
	p            *pkt
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

// Router routes permutations with the Section 6 algorithm.
type Router struct {
	cfg Config
	n   int

	pkts []pkt
	// occ counts the in-flight packets of all classes per real node.
	occ []int32

	// clock is the phase clock: the sum of the formula durations of all
	// phases emitted so far (the start step of the next span under the
	// paper's globally synchronized schedule).
	clock int

	res Result

	// Phase scratch, sized once per Route and indexed by tile-local
	// coordinates. Every phase leaves cnt zero and goEast/goNorth at -1.
	acts, found []act      // the phase's actives in phase order / as found
	count       []int32    // gather's counting sort: actives per tile column
	east, north grid.Coord // one algorithm-space hop east / north, in real space
	cnt         []int16    // March: [row][strip] actives; Balancing: actives per node
	goEast      []int32    // per node: the act chosen to move east this step
	goNorth     []int32    // per node (March: per row): likewise north
	live, moves []int32
	sending     []uint64  // base case: bitset of the nodes that transmit this step
	hold, fq    [][]int32 // Sort-and-Smooth: per strip node, indices into the stream
	head, recv  []int32   // fq read positions; packets received per strip i-2 node
	sends       []send
}

// emitSpan records one completed phase on the configured sink (if any)
// and advances the phase clock by the phase's synchronized duration.
func (r *Router) emitSpan(name string, class Class, axis string, iter, tau, measured, formula int) {
	if r.cfg.Sink != nil {
		r.cfg.Sink.Span(obs.Span{
			Name: name, Class: class.String(), Axis: axis,
			Iteration: iter, Tiling: tau,
			Start: r.clock, Measured: measured, Formula: formula,
		})
	}
	r.clock += formula
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

// reset clears the run state and sizes the slab for up to packets packets
// and the scratch for the whole mesh as one tile.
func (r *Router) reset(packets int) {
	n := r.n
	r.res = Result{N: n}
	r.clock = 0
	r.pkts = make([]pkt, 0, packets)
	r.occ = make([]int32, n*n)
	r.cnt = make([]int16, n*max(n, 29))
	r.goEast, r.goNorth = make([]int32, n*n), make([]int32, n*n)
	for i := range r.goEast {
		r.goEast[i], r.goNorth[i] = -1, -1
	}
	r.sending = make([]uint64, n*n/64+1)
	strip := n/27 + 1 // strip nodes are numbered 1..d, d <= n/27
	r.hold, r.fq = make([][]int32, strip), make([][]int32, strip)
	r.head, r.recv = make([]int32, strip), make([]int32, strip)
}

// Route routes the permutation and returns the run statistics.
func (r *Router) Route(perm *workload.Permutation) (*Result, error) {
	nodes := grid.NodeID(r.n * r.n)
	for _, pr := range perm.Pairs {
		if pr.Src < 0 || pr.Src >= nodes || pr.Dst < 0 || pr.Dst >= nodes {
			return nil, fmt.Errorf("clt: pair %d -> %d is outside the %d×%d mesh", pr.Src, pr.Dst, r.n, r.n)
		}
	}
	if err := perm.Validate(); err != nil {
		return nil, err
	}
	topo := grid.NewSquareMesh(r.n)
	r.reset(len(perm.Pairs))
	for i, pr := range perm.Pairs {
		src, dst := topo.CoordOf(pr.Src), topo.CoordOf(pr.Dst)
		if src == dst {
			continue // delivered at placement
		}
		r.pkts = append(r.pkts, pkt{id: i, cur: src, dst: dst, class: ClassOf(src, dst)})
		r.occ[r.nid(src)]++
	}
	r.res.Packets = len(r.pkts)

	for class := Class(0); class < numClasses; class++ {
		if err := r.routeClass(class); err != nil {
			return nil, err
		}
	}
	for k := range r.pkts {
		p, pr := &r.pkts[k], perm.Pairs[r.pkts[k].id]
		if !p.done {
			return nil, fmt.Errorf("clt: packet %d undelivered at %v (dst %v)", p.id, p.cur, p.dst)
		}
		if minimal := topo.Dist(pr.Src, pr.Dst); p.hops != minimal {
			return nil, fmt.Errorf("clt: packet %d took %d hops, a minimal path has %d", p.id, p.hops, minimal)
		}
	}
	res := r.res
	return &res, nil
}

// nid maps a real coordinate to a node index.
func (r *Router) nid(c grid.Coord) int { return c.Y*r.n + c.X }

// noteOccupancy refreshes the peak queue statistic for one node.
func (r *Router) noteOccupancy(id int) {
	if occ := int(r.occ[id]); occ > r.res.MaxQueue {
		r.res.MaxQueue = occ
	}
}

// routeClass runs one full pass for a class.
func (r *Router) routeClass(class Class) error {
	// The pass opens by taking stock of the nodes its packets wait in.
	for k := range r.pkts {
		if p := &r.pkts[k]; p.class == class && !p.done {
			r.noteOccupancy(r.nid(p.cur))
		}
	}

	iter := 0
	for m := r.n; m >= 27; m /= 3 {
		d := m / 27
		q := QBase
		if r.cfg.ImprovedQ && iter > 0 {
			q = QImproved
		}
		tilings := 1
		if iter > 0 {
			tilings = 3
		}
		// Vertical Phase on each tiling, then Horizontal Phase on each.
		for _, vertical := range []bool{true, false} {
			for tau := 0; tau < tilings; tau++ {
				if err := r.phase(class, vertical, m, d, q, tau, iter); err != nil {
					return err
				}
			}
		}
		iter++
	}
	if iter > r.res.Iterations {
		r.res.Iterations = iter
	}
	return r.baseCase(class, iter > 0)
}
