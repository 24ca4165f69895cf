package adversary

import (
	"hash/fnv"
	"testing"

	"meshroute/internal/bounds"
	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
)

// The constructions are fully deterministic: the exact constructed
// permutation must never change across refactors (reproducibility of the
// recorded experiments depends on it). These golden checksums pin the
// byte-level outcome; if an intentional behavior change breaks one, rerun
// the experiments and update both the checksum and EXPERIMENTS.md.
func permChecksum(res *Result) uint64 {
	h := fnv.New64a()
	for _, pr := range res.Permutation {
		var b [8]byte
		b[0] = byte(pr.Src)
		b[1] = byte(pr.Src >> 8)
		b[2] = byte(pr.Src >> 16)
		b[3] = byte(pr.Dst)
		b[4] = byte(pr.Dst >> 8)
		b[5] = byte(pr.Dst >> 16)
		h.Write(b[:6])
	}
	return h.Sum64()
}

// TestGoldenConstructions pins every geometry and every parameter of the
// construction engine — δ-stray, h-h, identity padding, the torus
// embedding, the per-inlink queue model — by its permutation checksum and
// its exchange and undelivered counts. The values were recorded before the
// three constructions became one engine. The packets a construction run
// delivers must meet the distance and cut bounds.
func TestGoldenConstructions(t *testing.T) {
	thm15 := func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) }
	with := func(c *Construction, err error, set func(*Construction)) (*Construction, error) {
		if err == nil {
			set(c)
		}
		return c, err
	}
	for _, tc := range []struct {
		name               string
		build              func() (*Construction, error)
		alg                func() sim.Algorithm
		sum                uint64
		exchanges, undeliv int
	}{
		{"general-dimorder", func() (*Construction, error) { return NewConstruction(120, 1) },
			dimOrderFactory, 0x12c6d46a7c3d301e, 14, 356},
		{"general-dimorder-n128-k2", func() (*Construction, error) { return NewConstruction(128, 2) },
			dimOrderFactory, 0x04c485e480e37e60, 34, 189},
		{"general-zigzag", func() (*Construction, error) { return NewConstruction(120, 1) },
			zigzagFactory, 0xbf0cce04903c8f6e, 298, 333},
		{"general-pad-identity", func() (*Construction, error) {
			c, err := NewConstruction(60, 1)
			return with(c, err, func(c *Construction) { c.PadIdentity = true })
		}, dimOrderFactory, 0x9eab2d742ba51bac, 4, 84},
		{"hh-h2", func() (*Construction, error) { return NewHHConstruction(60, 1, 2) },
			dimOrderFactory, 0xfa1d7a29412c90fa, 4, 158},
		{"hh-k2-h4", func() (*Construction, error) { return NewHHConstruction(60, 2, 4) },
			dimOrderFactory, 0xef9c18ed5da4f831, 35, 243},
		{"delta1-stray", func() (*Construction, error) { return NewDeltaConstruction(480, 1, 1) },
			strayFactory(1), 0xc69b3841e0e01e3d, 34, 563},
		{"torus-embedding", func() (*Construction, error) {
			c, err := NewConstruction(60, 1)
			return with(c, err, func(c *Construction) { c.Topo, c.OffX, c.OffY = grid.NewSquareTorus(120), 7, 11 })
		}, dimOrderFactory, 0xd373e1fa17aee0b6, 4, 84},
		{"dimorder-construction", func() (*Construction, error) { return NewDOConstruction(60, 1) },
			dimOrderFactory, 0x1234f2404e0b98b9, 9, 500},
		{"dimorder-n120-k2", func() (*Construction, error) { return NewDOConstruction(120, 2) },
			dimOrderFactory, 0x85d2c21e2c563182, 129, 1017},
		{"dimorder-thm15-per-inlink", func() (*Construction, error) {
			c, err := NewDOConstruction(90, 4*1+1)
			return with(c, err, func(c *Construction) { c.Queues, c.NetK = sim.PerInlinkQueues, 1 })
		}, thm15, 0x9b60dfdbdfe8f50b, 137, 159},
		{"farthest-first-n64-k1", func() (*Construction, error) { return NewFFConstruction(64, 1) },
			ffFactory, 0x74805a32e66d8a65, 0, 496},
		{"farthest-first-n128-k2", func() (*Construction, error) { return NewFFConstruction(128, 2) },
			ffFactory, 0xf073ddccd619b7c1, 570, 784},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(tc.alg())
			if err != nil {
				t.Fatal(err)
			}
			if got := permChecksum(res); got != tc.sum || res.Exchanges != tc.exchanges || res.UndeliveredHard != tc.undeliv {
				t.Errorf("constructed permutation changed: checksum %#x exchanges %d undelivered %d, recorded %#x %d %d",
					got, res.Exchanges, res.UndeliveredHard, tc.sum, tc.exchanges, tc.undeliv)
			}
			in := bounds.Instance{Topo: res.Net.Topo, Pairs: res.Net.DeliveredPairs()}
			if err := bounds.Check(in, res.Net.Metrics.Makespan, bounds.Distance, bounds.Cut); err != nil {
				t.Error(err)
			}
		})
	}
}
