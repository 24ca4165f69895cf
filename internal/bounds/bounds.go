// Package bounds is the table of the paper's numeric results, and of the
// bounds the tests hold every run to: one Row per bound, each a function
// from a routing instance to the interval its quantity must lie in. Every
// check and printout of a bound reads it from here; the run path reads
// nothing.
package bounds

import (
	"errors"
	"fmt"
	"math"

	"meshroute/internal/grid"
)

// The rows' constants, for printouts that state a bound without an
// instance (a column header, a flag's help).
const (
	// CLTSteps and CLTStepsImproved are Theorem 34's schedule length per
	// unit of n: with q = 408 throughout, and with the improved q = 102.
	CLTSteps, CLTStepsImproved = 972, 564
	// CLTQueue is Lemma 28's bound on the packets one node holds.
	CLTQueue = 834
	// Theorem15C is the c of Theorem 15's c·(n²/k + n). It is the
	// tests' constant, not one derived from the proof.
	Theorem15C = 20
	// ScheduledC is the c of the scheduled baseline's c·(C+D), the
	// constant its replay of Rothvoß's O(C+D) schedule is held to.
	ScheduledC = 3
)

// Unbounded is the hi of a row that bounds its quantity from below only.
const Unbounded = math.MaxInt

// Instance is one routing problem as the rows read it. Each row reads only
// the fields its comment names; the rest may be zero.
type Instance struct {
	// Topo is the network; its width is the side n.
	Topo grid.Topology
	// K is the queue capacity.
	K int
	// H is the most packets one source places; 0 counts as 1.
	H int
	// Pairs is the demand. For the rows that bind every run it is the
	// packets delivered so far, whatever else the network holds.
	Pairs []grid.Pair
	// Congestion is the C of the path system the scheduled baseline
	// replays.
	Congestion int
	// ImprovedQ selects Section 6's improved q.
	ImprovedQ bool
	// L and DN are a construction's ⌊l⌋ and d·n.
	L, DN int
}

// Row is one bound: its quantity lies in [lo, hi] on every instance for
// which ok holds.
type Row struct {
	// Result names the result the row states.
	Result string
	// Binds is what the bound holds for: a router by its registry name,
	// a construction, or every run.
	Binds string
	// Of is the bounded quantity.
	Of string
	// Bound maps an instance to the row's interval. ok is false where
	// the row does not bind the instance.
	Bound func(Instance) (lo, hi int, ok bool)
}

// Check returns one error for each row whose interval for in excludes v,
// or that does not bind in, naming the row.
func Check(in Instance, v int, rows ...*Row) error {
	var errs []error
	for _, r := range rows {
		switch lo, hi, ok := r.Bound(in); {
		case !ok:
			errs = append(errs, fmt.Errorf("%s does not bind this instance (it binds %s)", r.Result, r.Binds))
		case v < lo:
			errs = append(errs, fmt.Errorf("%s: %s %d, below its bound %d", r.Result, r.Of, v, lo))
		case v > hi:
			errs = append(errs, fmt.Errorf("%s: %s %d, above its bound %d", r.Result, r.Of, v, hi))
		}
	}
	return errors.Join(errs...)
}

// Theorem13 is the lower bound of the Section 3 construction, and of the
// Section 5 ones built on its steps: a destination-exchangeable minimal
// router leaves packets of the constructed permutation undelivered at step
// ⌊l⌋·d·n. Reads L and DN; binds where ⌊l⌋ ≥ 1.
var Theorem13 = &Row{"Theorem 13", "a construction", "makespan", func(in Instance) (int, int, bool) {
	return in.L * in.DN, Unbounded, in.L >= 1
}}

// Theorem15 bounds the bounded-queue dimension-order router's makespan on
// every permutation by c·(n²/k + n). Reads Topo and K.
var Theorem15 = &Row{"Theorem 15", "thm15", "makespan", func(in Instance) (int, int, bool) {
	if in.K < 1 {
		return 0, Unbounded, false
	}
	n := in.Topo.Width()
	return 0, Theorem15C * (n*n/in.K + n), true
}}

// Lemma28 bounds the packets any node of the Section 6 algorithm holds.
var Lemma28 = &Row{"Lemma 28", "clt", "peak queue", func(Instance) (int, int, bool) {
	return 0, CLTQueue, true
}}

// Theorem34 bounds the Section 6 algorithm's synchronized schedule by 972n
// steps, or 564n with the improved q. Reads Topo and ImprovedQ.
var Theorem34 = &Row{"Theorem 34", "clt", "schedule", func(in Instance) (int, int, bool) {
	c := CLTSteps
	if in.ImprovedQ {
		c = CLTStepsImproved
	}
	return 0, c * in.Topo.Width(), true
}}

// Scheduled bounds the offline baseline's makespan by c·(C+D), D the
// largest distance in Pairs. The router reserves each queue's last slot
// for vertical traffic, so it binds only where k > h: at k ≤ h the packets
// placed at a source fill that slot and the router wedges. Reads Topo, K,
// H, Pairs and Congestion.
var Scheduled = &Row{"Rothvoß's O(C+D)", "scheduled", "makespan", func(in Instance) (int, int, bool) {
	return 0, ScheduledC * (in.Congestion + dilation(in.Topo, in.Pairs)), in.K > max(in.H, 1)
}}

// Distance is the first bound any run of a Section 2 engine meets: a
// packet moves one hop a step, so the last delivery comes no earlier than
// the farthest delivered packet's distance. Reads Topo and Pairs.
var Distance = &Row{"distance bound", "every run", "last delivery step", func(in Instance) (int, int, bool) {
	return dilation(in.Topo, in.Pairs), Unbounded, true
}}

// Cut is the second: a directed link carries one packet a step, so the
// packets that must cross a cut in one direction take at least their
// number divided by the cut's links in that direction. Reads Topo and
// Pairs.
var Cut = &Row{"cut bound", "every run", "last delivery step", func(in Instance) (int, int, bool) {
	return cut(in.Topo, in.Pairs), Unbounded, true
}}

// Table lists every row.
var Table = []*Row{Theorem13, Theorem15, Lemma28, Theorem34, Scheduled, Distance, Cut}

// dilation returns the largest source–destination distance in pairs.
func dilation(topo grid.Topology, pairs []grid.Pair) int {
	d := 0
	for _, p := range pairs {
		d = max(d, topo.Dist(p.Src, p.Dst))
	}
	return d
}

// cut returns the largest bound over the cuts between rows below a and
// rows from a up, and likewise columns: the pairs with their source on
// one side and their destination on the other, divided by the links
// from that side to the other, rounded up. A row cut has one link per
// column on the mesh and two on the torus, whose wraparound links cross
// it too.
func cut(topo grid.Topology, pairs []grid.Pair) int {
	perLine := 1
	if topo.Wraparound() {
		perLine = 2
	}
	best := 0
	for _, rows := range [2]bool{true, false} {
		m, links := topo.Height(), perLine*topo.Width()
		if !rows {
			m, links = topo.Width(), perLine*topo.Height()
		}
		// up[a] and down[a] difference the pairs crossing cut a, which
		// separates coordinates below a from the rest, upward and
		// downward.
		up, down := make([]int, m+1), make([]int, m+1)
		for _, p := range pairs {
			s, d := topo.CoordOf(p.Src), topo.CoordOf(p.Dst)
			from, to := s.Y, d.Y
			if !rows {
				from, to = s.X, d.X
			}
			switch {
			case from < to:
				up[from+1]++
				up[to+1]--
			case to < from:
				down[to+1]++
				down[from+1]--
			}
		}
		u, dn := 0, 0
		for a := 1; a < m; a++ {
			u, dn = u+up[a], dn+down[a]
			best = max(best, (max(u, dn)+links-1)/links)
		}
	}
	return best
}
