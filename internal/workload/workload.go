// Package workload generates routing problem instances: the partial
// permutations used throughout the paper (Section 1: "one of the simplest
// benchmarks for a router's performance is how it performs in the worst
// case on static one-to-one (or partial permutation) routing problems"),
// structured hard permutations, h-h instances (Section 5), and random
// traffic for average-case framing (Section 1.1).
//
// All generators are deterministic given their arguments.
package workload

import (
	"fmt"
	"math/rand"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// Permutation is a routing instance as a pair list: Pairs[i] routes one
// packet from Src to Dst. In a partial permutation each node appears at
// most once as a source and at most once as a destination, which Validate
// checks; RandomDestinations and RandomHH return pair lists that are not
// one-to-one.
type Permutation struct {
	// Pairs lists the source/destination pairs.
	Pairs []Pair
}

// Pair is one packet's endpoints. The JSON names are part of the scenario
// spec format (internal/scenario).
type Pair = grid.Pair

// Len returns the number of packets.
func (p *Permutation) Len() int { return len(p.Pairs) }

// Validate checks the one-to-one property. The two sets are bitsets over
// the span of node ids seen (ids are one topology's, so the span is its
// size), not maps: CLT validates every permutation it routes.
func (p *Permutation) Validate() error {
	var lo, hi grid.NodeID
	for _, pr := range p.Pairs {
		lo, hi = min(lo, pr.Src, pr.Dst), max(hi, pr.Src, pr.Dst)
	}
	words := (int(hi)-int(lo))/64 + 1
	seen := make([]uint64, 2*words)
	srcs, dsts := seen[:words], seen[words:]
	// mark adds id to set and reports whether it was already there.
	mark := func(set []uint64, id grid.NodeID) bool {
		i := uint(int(id) - int(lo))
		was := set[i/64]&(1<<(i%64)) != 0
		set[i/64] |= 1 << (i % 64)
		return was
	}
	for _, pr := range p.Pairs {
		if mark(srcs, pr.Src) {
			return fmt.Errorf("workload: duplicate source %d", pr.Src)
		}
		if mark(dsts, pr.Dst) {
			return fmt.Errorf("workload: duplicate destination %d", pr.Dst)
		}
	}
	return nil
}

// Place installs the instance as a step-0 Replay source: one-shot static
// placement is the degenerate case of streaming, and the packets are placed
// through exactly the same admission as any streamed injection (identical
// order, identical errors to the historical direct-place loop).
func (p *Permutation) Place(net *sim.Network) error {
	return net.AttachSource(Replay(p), sim.AdmitRetry)
}

// Random returns a uniformly random full permutation of the topology's
// nodes (fixed points allowed, as in the paper's model — those packets are
// delivered immediately).
func Random(topo grid.Topology, seed int64) *Permutation {
	rng := rand.New(rand.NewSource(seed))
	n := topo.N()
	dst := rng.Perm(n)
	p := &Permutation{Pairs: make([]Pair, 0, n)}
	for s := 0; s < n; s++ {
		p.Pairs = append(p.Pairs, Pair{Src: grid.NodeID(s), Dst: grid.NodeID(dst[s])})
	}
	return p
}

// RandomDestinations returns a traffic instance where every node sends one
// packet to an independently uniform destination (not a permutation) — the
// average-case setting of Leighton cited in Section 1.1.
func RandomDestinations(topo grid.Topology, seed int64) *Permutation {
	rng := rand.New(rand.NewSource(seed))
	n := topo.N()
	p := &Permutation{Pairs: make([]Pair, 0, n)}
	for s := 0; s < n; s++ {
		p.Pairs = append(p.Pairs, Pair{Src: grid.NodeID(s), Dst: grid.NodeID(rng.Intn(n))})
	}
	return p
}

// Transpose returns the matrix-transpose permutation (x,y) -> (y,x).
func Transpose(topo grid.Topology) *Permutation {
	if topo.Width() != topo.Height() {
		panic("workload: transpose needs a square topology")
	}
	p := &Permutation{}
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		c := topo.CoordOf(id)
		p.Pairs = append(p.Pairs, Pair{Src: id, Dst: topo.ID(grid.XY(c.Y, c.X))})
	}
	return p
}

// Reversal returns the full-reversal permutation
// (x,y) -> (W-1-x, H-1-y), a classic congestion-heavy instance.
func Reversal(topo grid.Topology) *Permutation {
	p := &Permutation{}
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		c := topo.CoordOf(id)
		p.Pairs = append(p.Pairs, Pair{
			Src: id,
			Dst: topo.ID(grid.XY(topo.Width()-1-c.X, topo.Height()-1-c.Y)),
		})
	}
	return p
}

// Rotation returns the torus-shift permutation
// (x,y) -> ((x+dx) mod W, (y+dy) mod H).
func Rotation(topo grid.Topology, dx, dy int) *Permutation {
	p := &Permutation{}
	w, h := topo.Width(), topo.Height()
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		c := topo.CoordOf(id)
		p.Pairs = append(p.Pairs, Pair{
			Src: id,
			Dst: topo.ID(grid.XY(((c.X+dx)%w+w)%w, ((c.Y+dy)%h+h)%h)),
		})
	}
	return p
}

// BitReversal returns the bit-reversal permutation on an n×n mesh with n a
// power of two: each coordinate's bits are reversed.
func BitReversal(topo grid.Topology) *Permutation {
	n := topo.Width()
	if n != topo.Height() || n&(n-1) != 0 {
		panic("workload: bit reversal needs a square power-of-two mesh")
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	rev := func(x int) int {
		r := 0
		for b := 0; b < bits; b++ {
			if x&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		return r
	}
	p := &Permutation{}
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		c := topo.CoordOf(id)
		p.Pairs = append(p.Pairs, Pair{Src: id, Dst: topo.ID(grid.XY(rev(c.X), rev(c.Y)))})
	}
	return p
}

// RandomHH returns a random h-h instance (Section 5: each node sends and
// receives at most h packets) built from h independent random
// permutations, concatenated. It is a pair list like any other workload;
// Validate fails on it for h > 1, since it is not one-to-one.
func RandomHH(topo grid.Topology, h int, seed int64) *Permutation {
	out := &Permutation{}
	for i := 0; i < h; i++ {
		p := Random(topo, seed+int64(i)*7919)
		out.Pairs = append(out.Pairs, p.Pairs...)
	}
	return out
}
