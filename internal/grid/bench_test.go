package grid

import (
	"math/rand"
	"testing"
)

// The fixed-pair benchmarks below ask one question over and over, so every
// data-dependent branch in the query is predicted: they read the
// instruction count. The …Random variants walk a seeded table of random
// node pairs, which is what the engine's workloads look like (random
// destinations), and read the cost with mispredictions included. Quote both
// columns; the random one is the number bench's grid.profitable_ns agrees
// with. They call through Topology, as the engine does.

// randomTable is the number of (from, dst, dir) entries the …Random
// benchmarks cycle through: a power of two, and long enough that the branch
// predictor cannot learn the sequence — at 2 048 entries it does, and the
// branching torus Profitable reads 5.8 ns instead of 17. The table is read
// in order, so its 192 KiB cost nothing the prefetcher does not hide.
const randomTable = 1 << 14

type randomQuery struct {
	a, b NodeID
	d    Dir
}

func randomQueries(g Topology) []randomQuery {
	rng := rand.New(rand.NewSource(1))
	qs := make([]randomQuery, randomTable)
	for i := range qs {
		qs[i] = randomQuery{NodeID(rng.Intn(g.N())), NodeID(rng.Intn(g.N())), Dir(rng.Intn(NumDirs))}
	}
	return qs
}

// The results go here so the compiler keeps the calls.
var (
	sinkSet DirSet
	sinkInt int
)

// BenchmarkMeshProfitable measures the hot path of every routing decision.
func BenchmarkMeshProfitable(b *testing.B) {
	m := NewSquareMesh(256)
	a := m.ID(XY(17, 200))
	d := m.ID(XY(240, 3))
	for i := 0; i < b.N; i++ {
		_ = m.Profitable(a, d)
	}
}

// BenchmarkTorusProfitable measures the wraparound variant.
func BenchmarkTorusProfitable(b *testing.B) {
	t := NewSquareTorus(256)
	a := t.ID(XY(17, 200))
	d := t.ID(XY(240, 3))
	for i := 0; i < b.N; i++ {
		_ = t.Profitable(a, d)
	}
}

func benchProfitableRandom(b *testing.B, g Topology) {
	qs := randomQueries(g)
	b.ResetTimer()
	var s DirSet
	for i := 0; i < b.N; i++ {
		q := &qs[i&(randomTable-1)]
		s |= g.Profitable(q.a, q.b)
	}
	sinkSet = s
}

// BenchmarkMeshProfitableRandom is BenchmarkMeshProfitable on random pairs.
func BenchmarkMeshProfitableRandom(b *testing.B) { benchProfitableRandom(b, NewSquareMesh(256)) }

// BenchmarkTorusProfitableRandom is BenchmarkTorusProfitable on random pairs.
func BenchmarkTorusProfitableRandom(b *testing.B) { benchProfitableRandom(b, NewSquareTorus(256)) }

// BenchmarkMeshNeighbor measures link lookup.
func BenchmarkMeshNeighbor(b *testing.B) {
	m := NewSquareMesh(256)
	id := m.ID(XY(100, 100))
	for i := 0; i < b.N; i++ {
		for d := Dir(0); d < NumDirs; d++ {
			m.Neighbor(id, d)
		}
	}
}

// BenchmarkTorusNeighbor measures link lookup at a corner, where every
// second link wraps.
func BenchmarkTorusNeighbor(b *testing.B) {
	t := NewSquareTorus(256)
	id := t.ID(XY(255, 0))
	for i := 0; i < b.N; i++ {
		for d := Dir(0); d < NumDirs; d++ {
			t.Neighbor(id, d)
		}
	}
}

// benchNeighborRandom is one lookup per iteration (the fixed benchmarks do
// four), at a random node in a random direction. The grid is 8×8 so that
// half the nodes sit on an edge and "is there a link" is as unpredictable as
// "which way".
func benchNeighborRandom(b *testing.B, g Topology) {
	qs := randomQueries(g)
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		q := &qs[i&(randomTable-1)]
		if nb, ok := g.Neighbor(q.a, q.d); ok {
			s += int(nb)
		}
	}
	sinkInt = s
}

// BenchmarkMeshNeighborRandom is one mesh link lookup on random input.
func BenchmarkMeshNeighborRandom(b *testing.B) { benchNeighborRandom(b, NewSquareMesh(8)) }

// BenchmarkTorusNeighborRandom is one torus link lookup on random input.
func BenchmarkTorusNeighborRandom(b *testing.B) { benchNeighborRandom(b, NewSquareTorus(8)) }

// BenchmarkMeshOutlinksRandom measures the outlink set of random nodes of
// an 8×8 mesh (the torus answer is a constant).
func BenchmarkMeshOutlinksRandom(b *testing.B) {
	var g Topology = NewSquareMesh(8)
	qs := randomQueries(g)
	b.ResetTimer()
	var s DirSet
	for i := 0; i < b.N; i++ {
		s ^= g.Outlinks(qs[i&(randomTable-1)].a)
	}
	sinkSet = s
}

func benchDist(b *testing.B, g Topology, qs []randomQuery) {
	b.ResetTimer()
	var s int
	for i := 0; i < b.N; i++ {
		q := &qs[i&(len(qs)-1)]
		s += g.Dist(q.a, q.b)
	}
	sinkInt = s
}

func fixedQuery(g Topology) []randomQuery {
	return []randomQuery{{a: g.ID(XY(17, 200)), b: g.ID(XY(240, 3))}}
}

// BenchmarkMeshDist measures the L1 distance of one fixed pair.
func BenchmarkMeshDist(b *testing.B) { g := NewSquareMesh(256); benchDist(b, g, fixedQuery(g)) }

// BenchmarkTorusDist measures the torus distance of one fixed pair.
func BenchmarkTorusDist(b *testing.B) { g := NewSquareTorus(256); benchDist(b, g, fixedQuery(g)) }

// BenchmarkMeshDistRandom is BenchmarkMeshDist on random pairs.
func BenchmarkMeshDistRandom(b *testing.B) {
	g := NewSquareMesh(256)
	benchDist(b, g, randomQueries(g))
}

// BenchmarkTorusDistRandom is BenchmarkTorusDist on random pairs.
func BenchmarkTorusDistRandom(b *testing.B) {
	g := NewSquareTorus(256)
	benchDist(b, g, randomQueries(g))
}
