package grid

import "testing"

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
