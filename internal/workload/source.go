package workload

import (
	"math/rand"
	"slices"

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
// step it reproduces the one-shot dynamic injection of QueueInjection.
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
	buf = slices.Grow(buf, len(r.pairs))
	for _, pr := range r.pairs {
		buf = append(buf, Injection{Src: pr.Src, Dst: pr.Dst})
	}
	return buf
}

// Exhausted implements Source.
func (r *ReplaySource) Exhausted(step int) bool { return step >= r.step }

// BernoulliSource is the memoryless arrival process: at every step in
// [1, horizon], each of the n nodes independently injects a packet with
// probability rate, toward a uniformly random destination. The per-step,
// per-node RNG consumption order (one Float64 per node, one Intn on a hit,
// nodes in ascending id order) is part of the format: it pins the scenario
// layer's "bernoulli" arrival process bit-exactly.
type BernoulliSource struct {
	n       int
	rate    float64
	horizon int
	rng     *rand.Rand
}

// NewBernoulli returns a Bernoulli(rate) source over n nodes for steps
// 1..horizon, seeded deterministically.
func NewBernoulli(n int, rate float64, horizon int, seed int64) *BernoulliSource {
	return &BernoulliSource{n: n, rate: rate, horizon: horizon, rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source.
func (s *BernoulliSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon {
		return buf
	}
	for id := 0; id < s.n; id++ {
		if s.rng.Float64() < s.rate {
			dst := grid.NodeID(s.rng.Intn(s.n))
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: dst})
		}
	}
	return buf
}

// Exhausted implements Source.
func (s *BernoulliSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n·horizon trials of probability rate; the engine
// sizes an online run's packet store from it.
func (s *BernoulliSource) InjectionTrials() (trials, p float64) {
	return float64(s.n) * float64(s.horizon), s.rate
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

// OnOffSource is a bursty on/off modulated Bernoulli process: the stream
// alternates "on" windows of burst steps (each node injects with
// probability rate, uniform destination) and "off" windows of gap steps
// (silence), for steps 1..horizon. The RNG is consumed only during on
// steps, so the seed pins the stream under the once-per-step contract.
type OnOffSource struct {
	n       int
	rate    float64
	burst   int
	gap     int
	horizon int
	rng     *rand.Rand
}

// NewOnOff returns an on/off source over n nodes: burst on-steps then gap
// off-steps, repeating through horizon.
func NewOnOff(n int, rate float64, burst, gap, horizon int, seed int64) *OnOffSource {
	return &OnOffSource{n: n, rate: rate, burst: burst, gap: gap, horizon: horizon,
		rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source.
func (s *OnOffSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon {
		return buf
	}
	if (step-1)%(s.burst+s.gap) >= s.burst {
		return buf // off window: no arrivals, no RNG consumed
	}
	for id := 0; id < s.n; id++ {
		if s.rng.Float64() < s.rate {
			dst := grid.NodeID(s.rng.Intn(s.n))
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: dst})
		}
	}
	return buf
}

// Exhausted implements Source.
func (s *OnOffSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n trials of probability rate per on-step.
func (s *OnOffSource) InjectionTrials() (trials, p float64) {
	period := s.burst + s.gap
	on := s.horizon/period*s.burst + min(s.horizon%period, s.burst)
	return float64(s.n) * float64(on), s.rate
}

// HotspotSource is the adversarial hotspot stream: every node injects with
// probability rate, but all traffic converges on a small set of hot nodes
// spread along the mesh diagonal, concentrating load the way Even–Medina–
// Patt-Shamir's online adversary does. One hot node sits at the center;
// h of them sit at the diagonal points x = (2i+1)·side/(2h).
type HotspotSource struct {
	n       int
	hot     []grid.NodeID
	rate    float64
	horizon int
	rng     *rand.Rand
}

// NewHotspot returns a hotspot source on the topology with h hot
// destination nodes (h >= 1, clamped to the side length).
func NewHotspot(topo grid.Topology, h int, rate float64, horizon int, seed int64) *HotspotSource {
	side := topo.Width()
	if h < 1 {
		h = 1
	}
	if h > side {
		h = side
	}
	hot := make([]grid.NodeID, 0, h)
	for i := 0; i < h; i++ {
		x := (2*i + 1) * side / (2 * h)
		hot = append(hot, topo.ID(grid.XY(x, x)))
	}
	return &HotspotSource{n: topo.N(), hot: hot, rate: rate, horizon: horizon,
		rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source.
func (s *HotspotSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon {
		return buf
	}
	for id := 0; id < s.n; id++ {
		if s.rng.Float64() < s.rate {
			dst := s.hot[s.rng.Intn(len(s.hot))]
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: dst})
		}
	}
	return buf
}

// Exhausted implements Source.
func (s *HotspotSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n·horizon trials of probability rate.
func (s *HotspotSource) InjectionTrials() (trials, p float64) {
	return float64(s.n) * float64(s.horizon), s.rate
}

// TransposeStreamSource is the adversarial structured stream: every node
// injects with probability rate toward its transpose (x,y) -> (y,x), so the
// sustained load reproduces the classic transpose congestion pattern
// continuously instead of as a one-shot permutation.
type TransposeStreamSource struct {
	topo    grid.Topology
	rate    float64
	horizon int
	rng     *rand.Rand
}

// NewTransposeStream returns a streaming transpose source on a square
// topology.
func NewTransposeStream(topo grid.Topology, rate float64, horizon int, seed int64) *TransposeStreamSource {
	if topo.Width() != topo.Height() {
		panic("workload: transpose stream needs a square topology")
	}
	return &TransposeStreamSource{topo: topo, rate: rate, horizon: horizon,
		rng: rand.New(rand.NewSource(seed))}
}

// Next implements Source.
func (s *TransposeStreamSource) Next(step int, buf []Injection) []Injection {
	if step < 1 || step > s.horizon {
		return buf
	}
	n := s.topo.N()
	for id := 0; id < n; id++ {
		if s.rng.Float64() < s.rate {
			c := s.topo.CoordOf(grid.NodeID(id))
			buf = append(buf, Injection{Src: grid.NodeID(id), Dst: s.topo.ID(grid.XY(c.Y, c.X))})
		}
	}
	return buf
}

// Exhausted implements Source.
func (s *TransposeStreamSource) Exhausted(step int) bool { return step >= s.horizon }

// InjectionTrials reports n·horizon trials of probability rate.
func (s *TransposeStreamSource) InjectionTrials() (trials, p float64) {
	return float64(s.topo.N()) * float64(s.horizon), s.rate
}
