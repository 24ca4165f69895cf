package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/workload"
)

// TestAnalyzerAgainstClosedForms pins C and D for workloads small enough
// to hand-compute. The canonical system routes x-first with East/West
// before North/South, so each case below can be verified by walking the
// paths on paper; the Accumulator must reproduce the canonical numbers
// exactly, and Analyze may only ever lower C (never raise it, never
// touch D).
func TestAnalyzerAgainstClosedForms(t *testing.T) {
	cases := []struct {
		name    string
		topo    grid.Topology
		demands []Demand
		// canonical (dimension-order) closed forms
		c, d int
	}{
		{
			// Every node shifts one step East with wraparound: each
			// eastbound edge carries exactly its origin's packet.
			name: "rotation-torus-4x4", topo: grid.NewSquareTorus(4),
			demands: workload.Rotation(grid.NewSquareTorus(4), 1, 0).Pairs,
			c:       1, d: 1,
		},
		{
			// Transpose on the 3×3 mesh. D is the corner pair
			// (0,2)→(2,0): distance 4. With x-first paths the two
			// off-diagonal packets of each triangle share one horizontal
			// edge into the diagonal column and one vertical edge out of
			// it — e.g. (0,2)→(2,0) and (1,2)→(2,1) both cross
			// (1,2)→(2,2) and then (2,2)→(2,1) — so C = 2.
			name: "transpose-mesh-3x3", topo: grid.NewSquareMesh(3),
			demands: workload.Transpose(grid.NewSquareMesh(3)).Pairs,
			c:       2, d: 4,
		},
		{
			// Reversal on the 4×4 mesh: (x,y)→(3−x,3−y). D is the corner
			// trip, distance 6. x-first: within each row the two packets
			// from the west half and the two from the east half share
			// the middle horizontal edges (load 2); each column then
			// carries 4 packets vertically whose spans overlap pairwise
			// on the middle vertical edges (load 2). C = 2.
			name: "reversal-mesh-4x4", topo: grid.NewSquareMesh(4),
			demands: workload.Reversal(grid.NewSquareMesh(4)).Pairs,
			c:       2, d: 6,
		},
		{
			// Reversal on the 6×6 mesh, by the same count: the three
			// eastbound packets of a row all cross its middle edge, and
			// likewise in each column, so C = 3; D = 5 + 5. The greedy
			// pass finds other paths but no lower C, so Analyze must
			// return the canonical ones.
			name: "reversal-mesh-6x6", topo: grid.NewSquareMesh(6),
			demands: workload.Reversal(grid.NewSquareMesh(6)).Pairs,
			c:       3, d: 10,
		},
		{
			// Hotspot: all 24 other nodes send to the center (2,2) of
			// the 5×5 mesh. x-first paths funnel every packet with
			// y != 2 through column 2: the 10 packets born with y > 2
			// all cross the final southbound edge (2,3)→(2,2), so
			// C = 10; D is the corner trip, distance 4.
			name: "hotspot-mesh-5x5", topo: grid.NewSquareMesh(5),
			demands: hotspotDemands(grid.NewSquareMesh(5), grid.XY(2, 2)),
			c:       10, d: 4,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			acc := NewAccumulator(tc.topo)
			for _, dem := range tc.demands {
				acc.Admit(dem.Src, dem.Dst)
			}
			if got := acc.Result(); got.Congestion != tc.c || got.Dilation != tc.d {
				t.Fatalf("accumulator C=%d D=%d, hand-computed C=%d D=%d",
					got.Congestion, got.Dilation, tc.c, tc.d)
			}
			ps := Analyze(tc.topo, tc.demands)
			res := ps.Result()
			if res.Dilation != tc.d {
				t.Fatalf("Analyze D=%d, hand-computed %d", res.Dilation, tc.d)
			}
			if res.Congestion > tc.c {
				t.Fatalf("Analyze C=%d exceeds canonical C=%d: greedy pass degraded congestion", res.Congestion, tc.c)
			}
			if res.Congestion < 1 && len(tc.demands) > 0 {
				t.Fatalf("Analyze C=%d: some edge must carry load", res.Congestion)
			}
			if res.Congestion == tc.c { // unimproved: the canonical system is kept
				can := AnalyzeCanonical(tc.topo, tc.demands)
				for i := range tc.demands {
					if !slices.Equal(ps.Path(i), can.Path(i)) {
						t.Fatalf("demand %d: unimproved Analyze keeps %v, not the canonical path %v", i, ps.Path(i), can.Path(i))
					}
				}
			}
			verifyPathSystem(t, ps, tc.demands)
		})
	}
}

func hotspotDemands(topo grid.Topology, hot grid.Coord) []Demand {
	dst := topo.ID(hot)
	out := make([]Demand, 0, topo.N()-1)
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		if id != dst {
			out = append(out, Demand{Src: id, Dst: dst})
		}
	}
	return out
}

// verifyPathSystem checks the structural invariants every returned
// system must satisfy: each path is minimal (length == distance), walks
// from Src to Dst over existing links, and the stored edge-load table
// matches a recount.
func verifyPathSystem(t *testing.T, ps *PathSystem, demands []Demand) {
	t.Helper()
	recount := map[[2]int32]int{}
	for i, dem := range demands {
		path := ps.Path(i)
		if want := ps.topo.Dist(dem.Src, dem.Dst); len(path) != want {
			t.Fatalf("demand %d: path length %d != distance %d (not minimal)", i, len(path), want)
		}
		cur := dem.Src
		for _, dir := range path {
			if !ps.topo.Profitable(cur, dem.Dst).Has(dir) {
				t.Fatalf("demand %d: unprofitable hop %v at %v", i, dir, cur)
			}
			recount[[2]int32{int32(cur), int32(dir)}]++
			next, ok := ps.topo.Neighbor(cur, dir)
			if !ok {
				t.Fatalf("demand %d: hop %v off the grid at %v", i, dir, cur)
			}
			cur = next
		}
		if cur != dem.Dst {
			t.Fatalf("demand %d: path ends at %v, want %v", i, cur, dem.Dst)
		}
	}
	maxLoad := 0
	for edge, n := range recount {
		if got := ps.EdgeLoad(grid.NodeID(edge[0]), grid.Dir(edge[1])); got != n {
			t.Fatalf("edge %v load table %d != recount %d", edge, got, n)
		}
		if n > maxLoad {
			maxLoad = n
		}
	}
	if maxLoad != ps.Result().Congestion {
		t.Fatalf("recounted C=%d != reported C=%d", maxLoad, ps.Result().Congestion)
	}
}

// TestGreedyLowersCongestion builds a demand set where dimension order
// is provably bad — row-0 sources (i,0) send to distinct rows of the far
// column, (7,i), so x-first routing stacks all six onto the row-0 edge
// into (7,0) — and asserts the greedy pass fans them out over their own
// rows (the C=1 system: climb column i, then run East along row i).
func TestGreedyLowersCongestion(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	var demands []Demand
	for i := 0; i < 6; i++ {
		demands = append(demands, Demand{Src: topo.ID(grid.XY(i, 0)), Dst: topo.ID(grid.XY(7, i))})
	}
	acc := NewAccumulator(topo)
	for _, dem := range demands {
		acc.Admit(dem.Src, dem.Dst)
	}
	canon := acc.Result().Congestion
	if canon != 6 {
		t.Fatalf("canonical C=%d, want 6 (all six cross (6,0)→(7,0))", canon)
	}
	ps := Analyze(topo, demands)
	if got := ps.Result().Congestion; got > 2 {
		t.Fatalf("greedy C=%d, want the fan-out system (C≤2, ideally 1) over canonical C=%d", got, canon)
	}
	if got := ps.Result().Dilation; got != 7 {
		t.Fatalf("D=%d, want 7", got)
	}
	verifyPathSystem(t, ps, demands)
}

// TestAccumulatorMatchesCanonical is the differential test of the
// accumulator's row-and-column walk against the hop-by-hop definition of
// the canonical path (DimOrder of a fresh Profitable at every node):
// random demands — not only permutations — on square and rectangular meshes
// and on tori of odd and even sides, where an even side makes half-ring
// ties, which the loop below also forces. The whole load table must agree,
// and the running C and D must be exact after every Admit.
func TestAccumulatorMatchesCanonical(t *testing.T) {
	topos := []grid.Topology{
		grid.NewSquareMesh(9), grid.NewMesh(7, 4), grid.NewMesh(1, 6),
		grid.NewSquareTorus(8), grid.NewSquareTorus(7), grid.NewTorus(6, 3), grid.NewTorus(2, 2), grid.NewTorus(1, 4),
	}
	for _, topo := range topos {
		rng := rand.New(rand.NewSource(42))
		n, w, h := topo.N(), topo.Width(), topo.Height()
		var demands []Demand
		for i := 0; i < 400; i++ {
			demands = append(demands, Demand{Src: grid.NodeID(rng.Intn(n)), Dst: grid.NodeID(rng.Intn(n))})
		}
		// Exactly half way round in x, in y, and in both.
		for i := 0; i < 50; i++ {
			c := topo.CoordOf(grid.NodeID(rng.Intn(n)))
			for _, off := range [][2]int{{w / 2, 0}, {0, h / 2}, {w / 2, h / 2}} {
				dst := topo.ID(grid.XY((c.X+off[0])%w, (c.Y+off[1])%h))
				demands = append(demands, Demand{Src: topo.ID(c), Dst: dst})
			}
		}

		acc := NewAccumulator(topo)
		load := make([]int32, grid.NumDirs*n)
		c, d := 0, 0
		for i, dem := range demands {
			acc.Admit(dem.Src, dem.Dst)
			d = max(d, topo.Dist(dem.Src, dem.Dst))
			for cur := dem.Src; cur != dem.Dst; {
				dir := topo.Profitable(cur, dem.Dst).DimOrder()
				e := grid.EdgeIndex(cur, dir)
				load[e]++
				c = max(c, int(load[e]))
				cur, _ = topo.Neighbor(cur, dir)
			}
			if got := acc.Result(); got.Congestion != c || got.Dilation != d {
				t.Fatalf("%dx%d wrap=%v after demand %d (%v): accumulator C=%d D=%d, hop-by-hop C=%d D=%d",
					w, h, topo.Wraparound(), i, dem, got.Congestion, got.Dilation, c, d)
			}
		}
		if !slices.Equal(acc.load, load) {
			t.Fatalf("%dx%d wrap=%v: load tables differ", w, h, topo.Wraparound())
		}
		if ps := AnalyzeCanonical(topo, demands); ps.Result() != acc.Result() {
			t.Fatalf("%dx%d wrap=%v: AnalyzeCanonical %+v, accumulator %+v", w, h, topo.Wraparound(), ps.Result(), acc.Result())
		}
	}
}

func TestRatio(t *testing.T) {
	r := Result{Congestion: 6, Dilation: 4}
	if got := r.Ratio(20); got != 2.0 {
		t.Fatalf("Ratio(20)=%v, want 2", got)
	}
	if got := (Result{}).Ratio(7); got != 0 {
		t.Fatalf("empty-workload Ratio=%v, want 0", got)
	}
}

// BenchmarkAccumulatorAdmit times one admission on the 32×32 mesh under
// uniform random demands (mean distance 21 hops).
func BenchmarkAccumulatorAdmit(b *testing.B) {
	topo := grid.NewSquareMesh(32)
	rng := rand.New(rand.NewSource(1))
	demands := make([]Demand, 1<<12)
	for i := range demands {
		demands[i] = Demand{Src: grid.NodeID(rng.Intn(topo.N())), Dst: grid.NodeID(rng.Intn(topo.N()))}
	}
	acc := NewAccumulator(topo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := demands[i&(len(demands)-1)]
		acc.Admit(d.Src, d.Dst)
	}
}
