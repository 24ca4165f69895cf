package workload

import (
	"math/rand"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

// Injection and Source re-export the engine's streaming-workload contract
// (see sim.Source for the exact calling discipline: Next is called once per
// step in increasing order starting at 0, and seeded sources must consume
// their RNG only inside Next, so a seed pins the whole arrival stream).
type (
	Injection = sim.Injection
	Source    = sim.Source
)

// ReplaySource emits a fixed pair list at one single step — the degenerate
// streaming workload. At step 0 it reproduces static placement; at a later
// step it is a one-shot dynamic injection, whose packets enter through
// their sources' backlogs.
type ReplaySource struct {
	pairs []Pair
	step  int
}

// ReplayAt wraps a pair list as a Source that injects every pair at the
// given step (clamped at 0).
func ReplayAt(pairs []Pair, step int) *ReplaySource {
	if step < 0 {
		step = 0
	}
	return &ReplaySource{pairs: pairs, step: step}
}

// Replay wraps a static permutation instance as a step-0 Source, making
// one-shot placement the degenerate case of streaming: attaching it is
// behaviorally identical to the pre-streaming Place loop.
func Replay(p *Permutation) *ReplaySource { return ReplayAt(p.Pairs, 0) }

// Next implements Source.
func (r *ReplaySource) Next(step int, buf []Injection) []Injection {
	if step != r.step {
		return buf
	}
	return append(buf, r.pairs...)
}

// Exhausted implements Source.
func (r *ReplaySource) Exhausted(step int) bool { return step >= r.step }

// BernoulliSource is the one random arrival process (the Section 5 dynamic
// extension): at each step of 1..horizon inside an on window, each of the n
// nodes injects with probability rate. Its window (burst on-steps then gap
// off-steps from step 1; gap == 0 means always on) and its destination rule
// (uniform over the n nodes, uniform over a hot set, or the source's
// transpose) make it each of the scenario layer's four random processes.
// The RNG consumption order is part of the format and pins every stream:
// one Float64 per node in ascending id order, tested as u < rate; on a hit
// one Intn for the destination, none under the transpose rule; nothing at
// all in an off window.
type BernoulliSource struct {
	n          int
	rate       float64
	horizon    int
	burst, gap int
	hot        []grid.NodeID // non-nil: destinations drawn from this set
	transpose  *grid.Grid    // non-nil: each source sends to its transpose
	rng        *rand.Rand
}

// NewBernoulli returns an always-on Bernoulli(rate) source over n nodes for
// steps 1..horizon toward uniform destinations, seeded deterministically.
func NewBernoulli(n int, rate float64, horizon int, seed int64) *BernoulliSource {
	return &BernoulliSource{n: n, rate: rate, horizon: horizon, rng: rand.New(rand.NewSource(seed))}
}

// NewOnOff returns the bursty on/off source over n nodes: burst on-steps
// then gap off-steps, repeating through horizon.
func NewOnOff(n int, rate float64, burst, gap, horizon int, seed int64) *BernoulliSource {
	s := NewBernoulli(n, rate, horizon, seed)
	s.burst, s.gap = burst, gap
	return s
}

// NewHotspot returns the adversarial hotspot source on the topology: all
// traffic converges on h hot nodes (h >= 1, clamped to the side length)
// spread along the mesh diagonal at x = (2i+1)·side/(2h) — one at the
// center when h = 1 — concentrating load the way Even–Medina–Patt-Shamir's
// online adversary does.
func NewHotspot(topo grid.Topology, h int, rate float64, horizon int, seed int64) *BernoulliSource {
	side := topo.Width()
	h = min(max(h, 1), side)
	s := NewBernoulli(topo.N(), rate, horizon, seed)
	s.hot = make([]grid.NodeID, h)
	for i := range s.hot {
		x := (2*i + 1) * side / (2 * h)
		s.hot[i] = topo.ID(grid.XY(x, x))
	}
	return s
}

// NewTransposeStream returns the streaming transpose source on a square
// topology: the classic transpose congestion pattern as a sustained load
// instead of a one-shot permutation.
func NewTransposeStream(topo grid.Topology, rate float64, horizon int, seed int64) *BernoulliSource {
	if topo.Width() != topo.Height() {
		panic("workload: transpose stream needs a square topology")
	}
	s := NewBernoulli(topo.N(), rate, horizon, seed)
	s.transpose = topo
	return s
}

// Next implements Source.
func (s *BernoulliSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon || s.gap > 0 && (step-1)%(s.burst+s.gap) >= s.burst {
		return buf // outside the horizon or in an off window: no RNG consumed
	}
	for id := 0; id < s.n; id++ {
		if s.rng.Float64() < s.rate {
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: s.dst(grid.NodeID(id))})
		}
	}
	return buf
}

// dst applies the destination rule to a hit at node src.
func (s *BernoulliSource) dst(src grid.NodeID) grid.NodeID {
	switch {
	case s.transpose != nil:
		c := s.transpose.CoordOf(src)
		return s.transpose.ID(grid.XY(c.Y, c.X))
	case s.hot != nil:
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	return grid.NodeID(s.rng.Intn(s.n))
}

// Exhausted implements Source.
func (s *BernoulliSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n trials of probability rate per on-step of
// 1..horizon; the engine sizes an online run's packet store from it.
func (s *BernoulliSource) InjectionTrials() (trials, p float64) {
	on := s.horizon
	if s.gap > 0 {
		period := s.burst + s.gap
		on = s.horizon/period*s.burst + min(s.horizon%period, s.burst)
	}
	return float64(s.n) * float64(on), s.rate
}

// BurstSource is the deterministic bursty stream of the scenario layer's
// "periodic" arrival process: for steps 1..horizon/2, node id injects when
// (id+step)%7 == 0, toward (id*13 + step*29) mod n. Its arithmetic is part
// of the format: the dynamic golden digests pin it. It is exhausted only at
// horizon, like every other process, so a run lasts until then.
type BurstSource struct {
	n       int
	horizon int
}

// NewBurst returns the deterministic burst source over n nodes with the
// given horizon (injections stop after horizon/2).
func NewBurst(n, horizon int) *BurstSource { return &BurstSource{n: n, horizon: horizon} }

// Next implements Source.
func (s *BurstSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon/2 {
		return buf
	}
	for id := 0; id < s.n; id++ {
		if (id+step)%7 == 0 {
			dst := grid.NodeID((id*13 + step*29) % s.n)
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: dst})
		}
	}
	return buf
}

// Exhausted implements Source.
func (s *BurstSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n/7 certain injections a step for horizon/2
// steps: any seven consecutive steps inject exactly n, so within 6.
func (s *BurstSource) InjectionTrials() (trials, p float64) {
	return float64(s.n) * float64(s.horizon/2) / 7, 1
}
