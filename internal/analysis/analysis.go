// Package analysis computes the congestion+dilation yardstick of
// Rothvoß's simpler O(C+D) proof ("A simpler proof for O(congestion +
// dilation) packet routing") for the workloads this repository routes.
//
// For a workload and a chosen system of minimal paths, the dilation D is
// the length of the longest path (on our mesh/torus: the maximum
// shortest-path distance over all src→dst demands, since every path in
// the system is minimal) and the congestion C is the maximum number of
// paths that share one directed edge. Any store-and-forward schedule
// needs at least max(C_opt, D) steps, and O(C+D) is achievable, so
// makespan/(C+D) is a theory-grounded efficiency ratio that stays
// comparable across topologies, routers, and scales.
//
// Two entry points:
//
//   - Analyze computes C and D for a static demand set, building the
//     canonical dimension-order path system and then running one greedy
//     improvement pass that re-routes each demand over min-load
//     profitable edges (still minimal paths, so D is unchanged; C can
//     only stay or drop — the pass reverts to canonical if it ever
//     degrades C). AnalyzeCanonical builds the canonical system alone;
//     its phased per-demand paths are what the "scheduled" offline
//     baseline router replays.
//
//   - Accumulator accrues C and D incrementally, one Admit(src, dst)
//     call per packet at admission time, over the canonical paths. It
//     never allocates after construction, so the simulator can invoke it
//     from the admission hot path; online/replay workloads use it to
//     report the congestion of the full demand sequence they injected.
package analysis

import "meshroute/internal/grid"

// Demand is one packet's endpoints.
type Demand = grid.Pair

// Result holds the congestion and dilation of a workload under a
// concrete minimal-path system.
type Result struct {
	// Congestion is the maximum number of paths sharing one directed
	// edge.
	Congestion int
	// Dilation is the maximum path length (= maximum shortest-path
	// distance, since all paths are minimal).
	Dilation int
}

// CD returns Congestion + Dilation, the Θ(makespan) yardstick.
func (r Result) CD() int { return r.Congestion + r.Dilation }

// Ratio returns makespan/(C+D), or 0 when the workload is empty
// (C+D == 0, e.g. every packet born at its destination).
func (r Result) Ratio(makespan int) float64 {
	if cd := r.CD(); cd > 0 {
		return float64(makespan) / float64(cd)
	}
	return 0
}

// PathSystem is a system of minimal paths for a static demand set,
// together with its congestion/dilation result. Paths are stored flat
// (one dirs slice, per-demand offsets) so a million-packet instance costs
// one byte per hop.
type PathSystem struct {
	topo    grid.Topology
	demands []Demand
	dirs    []grid.Dir // all paths, concatenated
	off     []int32    // len(demands)+1 offsets into dirs
	load    []int32    // directed-edge load table, 4·N entries
	res     Result
}

// Result returns the congestion and dilation of the system.
func (ps *PathSystem) Result() Result { return ps.res }

// Len returns the number of demands.
func (ps *PathSystem) Len() int { return len(ps.demands) }

// Demand returns the i-th demand.
func (ps *PathSystem) Demand(i int) Demand { return ps.demands[i] }

// Path returns the i-th demand's hop sequence. The slice aliases the
// system's storage; callers must not modify it.
func (ps *PathSystem) Path(i int) []grid.Dir {
	return ps.dirs[ps.off[i]:ps.off[i+1]]
}

// EdgeLoad returns the number of paths using the directed edge that
// leaves node id in direction d.
func (ps *PathSystem) EdgeLoad(id grid.NodeID, d grid.Dir) int {
	return int(ps.load[grid.EdgeIndex(id, d)])
}

// Analyze builds a minimal-path system for the demands and returns it
// with its congestion and dilation. The construction is deterministic:
// first the canonical dimension-order system, then one greedy pass that
// re-routes each demand (in input order) over the currently
// least-loaded profitable edges. Greedy paths are still minimal, so the
// dilation is exact either way; if the pass fails to improve the
// congestion the canonical system is kept, so the returned C never
// exceeds the canonical C.
func Analyze(topo grid.Topology, demands []Demand) *PathSystem {
	ps := AnalyzeCanonical(topo, demands)
	canonC := ps.res.Congestion

	// Greedy improvement pass. Every minimal path for a demand has the
	// same length (its distance), so rewrites fit exactly in the
	// demand's existing dirs window.
	for i, dem := range demands {
		ps.walkPath(i, dem, -1) // lift the demand's own load off the table
		seg := ps.dirs[ps.off[i]:ps.off[i+1]]
		for j, cur := 0, dem.Src; cur != dem.Dst; j++ {
			// The profitable edges in dimension order, so a tie keeps the
			// canonical hop.
			best, bestLoad := grid.NoDir, int32(0)
			for rest := ps.topo.Profitable(cur, dem.Dst); rest != 0; {
				dir := rest.DimOrder()
				rest &^= 1 << dir
				if l := ps.load[grid.EdgeIndex(cur, dir)]; best == grid.NoDir || l < bestLoad {
					best, bestLoad = dir, l
				}
			}
			seg[j] = best
			ps.load[grid.EdgeIndex(cur, best)]++
			cur, _ = ps.topo.Neighbor(cur, best)
		}
	}
	if c := ps.maxLoad(); c < canonC {
		ps.res.Congestion = c
	} else {
		// Revert: rebuild the canonical system so the retained paths
		// match the reported congestion.
		ps.fillCanonical()
		ps.res.Congestion = canonC
	}
	return ps
}

// AnalyzeCanonical builds the canonical dimension-order path system for
// the demands (x-displacement first, then y) without the greedy
// improvement pass, so every path is phased: all horizontal hops precede
// all vertical ones. The "scheduled" router replays this system — the
// phasing is what makes its bounded-queue replay deadlock-free under the
// reserved-slot admission rule it shares with the dimension-order
// routers. Its congestion is an upper bound on Analyze's.
func AnalyzeCanonical(topo grid.Topology, demands []Demand) *PathSystem {
	ps := &PathSystem{
		topo:    topo,
		demands: demands,
		off:     make([]int32, len(demands)+1),
		load:    make([]int32, grid.NumDirs*topo.N()),
	}
	total := 0
	for i, dem := range demands {
		dist := topo.Dist(dem.Src, dem.Dst)
		ps.off[i] = int32(total)
		total += dist
		ps.res.Dilation = max(ps.res.Dilation, dist)
	}
	ps.off[len(demands)] = int32(total)
	ps.dirs = make([]grid.Dir, total)
	ps.fillCanonical()
	ps.res.Congestion = ps.maxLoad()
	return ps
}

// fillCanonical writes every demand's canonical path into its window of
// ps.dirs and counts the paths' edges into ps.load, from zero.
func (ps *PathSystem) fillCanonical() {
	clear(ps.load)
	for i, dem := range ps.demands {
		seg := ps.dirs[ps.off[i]:ps.off[i+1]]
		for j, cur := 0, dem.Src; cur != dem.Dst; j++ {
			dir := ps.topo.Profitable(cur, dem.Dst).DimOrder()
			seg[j] = dir
			ps.load[grid.EdgeIndex(cur, dir)]++
			cur, _ = ps.topo.Neighbor(cur, dir)
		}
	}
}

// walkPath replays demand i's stored path, adding delta to every edge it
// uses.
func (ps *PathSystem) walkPath(i int, dem Demand, delta int32) {
	cur := dem.Src
	for _, dir := range ps.dirs[ps.off[i]:ps.off[i+1]] {
		ps.load[grid.EdgeIndex(cur, dir)] += delta
		cur, _ = ps.topo.Neighbor(cur, dir)
	}
}

func (ps *PathSystem) maxLoad() int {
	m := int32(0)
	for _, l := range ps.load {
		if l > m {
			m = l
		}
	}
	return int(m)
}

// Accumulator accrues congestion and dilation one admitted packet at a
// time over the canonical dimension-order paths. Admit never allocates,
// so the simulator calls it from the admission path; when analysis is
// off the hook is a nil pointer and costs one branch.
type Accumulator struct {
	topo grid.Topology
	w, h int // topo's width and height
	load []int32
	res  Result
}

// NewAccumulator returns an empty accumulator for the topology.
func NewAccumulator(topo grid.Topology) *Accumulator {
	return &Accumulator{topo: topo, w: topo.Width(), h: topo.Height(), load: make([]int32, grid.NumDirs*topo.N())}
}

// Admit accrues one src→dst demand: dilation takes the max with the
// pair's distance, and every edge of the canonical path counts one more
// unit of load.
//
// The canonical path is a horizontal run along the source's row followed by
// a vertical run along the destination's column, and DimOrder gives the
// same answer at every node of a run: a direction that is profitable stays
// so until its displacement is used up, and where a torus offers both ways
// round (the half-ring tie) the first hop East or North leaves that way
// strictly shorter. So one Profitable at the source fixes both directions,
// and the runs are index arithmetic over the load table.
func (a *Accumulator) Admit(src, dst grid.NodeID) {
	if src == dst {
		return
	}
	prof := a.topo.Profitable(src, dst)
	s, d := a.topo.CoordOf(src), a.topo.CoordOf(dst)
	hops := 0
	// Along row s.Y, from column s.X to column d.X.
	switch {
	case prof.Has(grid.East):
		hops += a.run(s.Y*a.w, 1, s.X, a.w, d.X-s.X, grid.East)
	case prof.Has(grid.West):
		hops += a.run(s.Y*a.w, 1, s.X, a.w, s.X-d.X, grid.West)
	}
	// Along column d.X, from row s.Y to row d.Y.
	switch {
	case prof.Has(grid.North):
		hops += a.run(d.X, a.w, s.Y, a.h, d.Y-s.Y, grid.North)
	case prof.Has(grid.South):
		hops += a.run(d.X, a.w, s.Y, a.h, s.Y-d.Y, grid.South)
	}
	if hops > a.res.Dilation {
		a.res.Dilation = hops
	}
}

// run counts one more path on every edge of one straight run of a canonical
// path and returns its length. The run lies on a line of m nodes — a row or
// a column — whose node at position q has identifier base+q·stride; it
// starts at position p, leaves each node by outlink dir (East and North go to
// larger positions) and covers displacement disp in that direction, which is
// negative exactly when the run goes round the torus edge (a mesh never asks
// that: its profitable direction has a positive displacement).
func (a *Accumulator) run(base, stride, p, m, disp int, dir grid.Dir) int {
	if disp < 0 {
		disp += m
	}
	step := 1
	if dir == grid.West || dir == grid.South {
		step = -1
	}
	for n := disp; n > 0; n-- {
		i := grid.EdgeIndex(grid.NodeID(base+p*stride), dir)
		a.load[i]++
		if l := int(a.load[i]); l > a.res.Congestion {
			a.res.Congestion = l
		}
		if p += step; p == m {
			p = 0
		} else if p < 0 {
			p = m - 1
		}
	}
	return disp
}

// Result returns the congestion and dilation accrued so far.
func (a *Accumulator) Result() Result { return a.res }
