package adversary

import (
	"runtime"
	"testing"
)

// BenchmarkConstruction measures one full Theorem 14 construction run
// (placement, ⌊l⌋dn adversarial steps, permutation extraction).
func BenchmarkConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewConstruction(216, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(dimOrderFactory()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstructionVerified includes the Lemma 1-8 checker.
func BenchmarkConstructionVerified(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := NewConstruction(216, 1)
		if err != nil {
			b.Fatal(err)
		}
		c.Verify = true
		if _, err := c.Run(dimOrderFactory()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures the Lemma 12 replay + equality check.
func BenchmarkReplay(b *testing.B) {
	c, err := NewConstruction(216, 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Replay(res, dimOrderFactory()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSparseNodeFootprint bounds what the n=240, k=2 construction and its
// replay allocate together, both networks live (the benchmark's
// lowerbound-adversary operation before completion): 32 B a mesh node,
// what one flat network's node records alone would take. The construction
// places 788 packets on 57 600 nodes, so each network pages in only the
// node records its packets reach (docs/SCALING.md); two flat networks
// allocated about 78 B/node.
func TestSparseNodeFootprint(t *testing.T) {
	c, err := NewConstruction(240, 2)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := c.Run(dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	net, err := c.Replay(res, dimOrderFactory())
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(res.Net)
	runtime.KeepAlive(net)
	n := uint64(c.Topo.N())
	if got := after.TotalAlloc - before.TotalAlloc; got > 32*n {
		t.Fatalf("construction and replay on a %d-node mesh allocated %d B (%.1f B/node), want <= 32 B/node",
			n, got, float64(got)/float64(n))
	}
}
