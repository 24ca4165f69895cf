package clt

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"meshroute/internal/bounds"
	"meshroute/internal/grid"
	"meshroute/internal/workload"
)

func routePerm(t *testing.T, n int, perm *workload.Permutation, cfg Config) (*Router, *Result) {
	t.Helper()
	cfg.N = n
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Route(perm)
	if err != nil {
		t.Fatal(err)
	}
	return r, res
}

// withinBounds holds a route on the n×n mesh to Theorem 34's schedule and
// Lemma 28's queue bound.
func withinBounds(n int, improved bool, res *Result) error {
	in := bounds.Instance{Topo: grid.NewSquareMesh(n), ImprovedQ: improved}
	return errors.Join(bounds.Check(in, res.TimeFormula, bounds.Theorem34), bounds.Check(in, res.MaxQueue, bounds.Lemma28))
}

// packets returns the packets of r's last Route in id order, gathered from
// the four class runs.
func (r *Router) packets() []pkt {
	var all []pkt
	for i := range r.runs {
		all = append(all, r.runs[i].pkts...)
	}
	slices.SortStableFunc(all, func(a, b pkt) int { return cmp.Compare(a.id, b.id) })
	return all
}

// checkMinimal asserts that every packet rests, delivered, at its
// destination. (Route itself compares the hop counts with the distances.)
func checkMinimal(t *testing.T, r *Router) {
	t.Helper()
	for _, p := range r.packets() {
		if !p.done || p.cur != p.dst {
			t.Fatalf("packet %d undelivered at %v (dst %v)", p.id, p.cur, p.dst)
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		src, dst grid.Coord
		want     Class
	}{
		{grid.XY(0, 0), grid.XY(5, 5), NE},
		{grid.XY(0, 0), grid.XY(0, 5), NE}, // directly north
		{grid.XY(0, 0), grid.XY(5, 0), NE}, // directly east (boundary)
		{grid.XY(5, 5), grid.XY(0, 7), NW},
		{grid.XY(5, 5), grid.XY(0, 5), NW}, // directly west
		{grid.XY(5, 5), grid.XY(7, 0), SE},
		{grid.XY(5, 5), grid.XY(5, 0), SW}, // directly south
		{grid.XY(5, 5), grid.XY(0, 0), SW},
	}
	for _, c := range cases {
		if got := ClassOf(c.src, c.dst); got != c.want {
			t.Errorf("ClassOf(%v, %v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestXformInvolution(t *testing.T) {
	for class := Class(0); class < numClasses; class++ {
		for _, tr := range []bool{false, true} {
			xf := newXform(27, class, tr)
			for _, c := range []grid.Coord{grid.XY(0, 0), grid.XY(5, 13), grid.XY(26, 26)} {
				if got := xf.from(xf.to(c)); got != c {
					t.Fatalf("class %v transpose %v: from(to(%v)) = %v", class, tr, c, got)
				}
			}
			// The transform maps the class's movement to north/east.
			a, b := xf.to(grid.XY(13, 13)), grid.XY(13, 13)
			_ = a
			_ = b
		}
	}
}

func TestXformMapsClassToNE(t *testing.T) {
	n := 27
	topo := grid.NewSquareMesh(n)
	for s := 0; s < n*n; s += 7 {
		for d := 0; d < n*n; d += 5 {
			src, dst := topo.CoordOf(grid.NodeID(s)), topo.CoordOf(grid.NodeID(d))
			if src == dst {
				continue
			}
			class := ClassOf(src, dst)
			for _, tr := range []bool{false, true} {
				xf := newXform(n, class, tr)
				a, b := xf.to(src), xf.to(dst)
				if b.X < a.X || b.Y < a.Y {
					t.Fatalf("class %v: %v->%v maps to %v->%v (not NE)", class, src, dst, a, b)
				}
			}
		}
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	if _, err := New(Config{N: 0}); err == nil {
		t.Fatal("n=0 must fail")
	}
	// Only 27·3^j fits the tilings; 30, 54, 135 … are multiples of 3 too.
	for _, n := range []int{28, 30, 32, 54, 80, 82, 108, 135, 242} {
		if _, err := New(Config{N: n}); err == nil {
			t.Fatalf("n=%d (not a power of 3) must fail", n)
		}
	}
	for _, n := range []int{1, 9, 26, 27, 81, 243, 729} {
		if _, err := New(Config{N: n}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestSmallMeshBaseCaseOnly(t *testing.T) {
	for _, n := range []int{4, 9, 16, 26} {
		topo := grid.NewSquareMesh(n)
		for seed := int64(0); seed < 3; seed++ {
			perm := workload.Random(topo, seed)
			r, res := routePerm(t, n, perm, Config{})
			if res.Iterations != 0 {
				t.Fatalf("n=%d must be pure base case", n)
			}
			checkMinimal(t, r)
		}
	}
}

func TestRoute27RandomPermutations(t *testing.T) {
	n := 27
	topo := grid.NewSquareMesh(n)
	for seed := int64(0); seed < 5; seed++ {
		perm := workload.Random(topo, seed)
		r, res := routePerm(t, n, perm, Config{Verify: true})
		checkMinimal(t, r)
		if err := withinBounds(n, false, res); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoute27Structured(t *testing.T) {
	n := 27
	topo := grid.NewSquareMesh(n)
	for name, perm := range map[string]*workload.Permutation{
		"transpose": workload.Transpose(topo),
		"reversal":  workload.Reversal(topo),
		"rotation":  workload.Rotation(topo, 13, 7),
	} {
		r, res := routePerm(t, n, perm, Config{Verify: true})
		checkMinimal(t, r)
		if res.Packets == 0 {
			t.Fatalf("%s: no packets", name)
		}
	}
}

func TestRoute81(t *testing.T) {
	n := 81
	topo := grid.NewSquareMesh(n)
	for _, perm := range []*workload.Permutation{
		workload.Random(topo, 1),
		workload.Transpose(topo),
	} {
		r, res := routePerm(t, n, perm, Config{})
		checkMinimal(t, r)
		if err := withinBounds(n, false, res); err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 2 {
			t.Fatalf("n=81 should run 2 tile iterations, got %d", res.Iterations)
		}
	}
}

func TestImprovedQBound(t *testing.T) {
	n := 81
	perm := workload.Random(grid.NewSquareMesh(n), 7)
	_, res := routePerm(t, n, perm, Config{ImprovedQ: true})
	if err := withinBounds(n, true, res); err != nil {
		t.Fatal(err)
	}
}

func TestHopsAreMinimal(t *testing.T) {
	n := 27
	topo := grid.NewSquareMesh(n)
	perm := workload.Random(topo, 11)
	cfg := Config{N: n}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Record endpoints before routing (cur mutates).
	type ep struct{ src, dst grid.Coord }
	eps := map[int]ep{}
	for i, pr := range perm.Pairs {
		eps[i] = ep{topo.CoordOf(pr.Src), topo.CoordOf(pr.Dst)}
	}
	if _, err := r.Route(perm); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.packets() {
		e := eps[int(p.id)]
		want := abs(e.dst.X-e.src.X) + abs(e.dst.Y-e.src.Y)
		if int(p.hops) != want {
			t.Fatalf("packet %d: %d hops, minimal %d", p.id, p.hops, want)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestDeterministic(t *testing.T) {
	n := 27
	perm1 := workload.Random(grid.NewSquareMesh(n), 3)
	perm2 := workload.Random(grid.NewSquareMesh(n), 3)
	_, r1 := routePerm(t, n, perm1, Config{})
	_, r2 := routePerm(t, n, perm2, Config{})
	if *r1 != *r2 {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", *r1, *r2)
	}
}

func TestPartialPermutation(t *testing.T) {
	n := 27
	perm := &workload.Permutation{Pairs: []workload.Pair{
		{Src: 0, Dst: grid.NodeID(n*n - 1)},
		{Src: grid.NodeID(n*n - 1), Dst: 0},
		{Src: 5, Dst: 5}, // fixed point
	}}
	r, res := routePerm(t, n, perm, Config{Verify: true})
	checkMinimal(t, r)
	if res.Packets != 2 {
		t.Fatalf("fixed points should not count: %d", res.Packets)
	}
}

// assertTheorem34 routes a random permutation, the transpose and the
// reversal on the n×n mesh with both q variants and holds each route to
// Theorem 34 and Lemma 28: the synchronized schedule is at most 972n steps
// (564n with the improved q), every phase goes quiescent within its closed
// form, no node ever holds more than 834 packets, every path is minimal.
func assertTheorem34(t *testing.T, n int) {
	t.Helper()
	topo := grid.NewSquareMesh(n)
	for _, w := range []struct {
		name string
		perm *workload.Permutation
	}{
		{"random", workload.Random(topo, 1)},
		{"transpose", workload.Transpose(topo)},
		{"reversal", workload.Reversal(topo)},
	} {
		for _, improved := range []bool{false, true} {
			r, res := routePerm(t, n, w.perm, Config{ImprovedQ: improved})
			if err := withinBounds(n, improved, res); err != nil || res.TimeMeasured > res.TimeFormula {
				t.Errorf("n=%d %s improved=%v: schedule %d, measured %d: %v",
					n, w.name, improved, res.TimeFormula, res.TimeMeasured, err)
			}
			checkMinimal(t, r)
			t.Logf("n=%d %s improved=%v: schedule %d (%.1f·n), measured %d, peak queue %d",
				n, w.name, improved, res.TimeFormula, float64(res.TimeFormula)/float64(n), res.TimeMeasured, res.MaxQueue)
		}
	}
}

func TestTheorem34Bounds(t *testing.T) {
	for _, n := range []int{27, 81, 243} {
		if n == 243 && testing.Short() {
			continue
		}
		assertTheorem34(t, n)
	}
}

// The Lemma 16 prefix property holds after every Sort-and-Smooth of a full
// n=81 permutation (two tile iterations, three tilings).
func TestVerify81(t *testing.T) {
	n := 81
	topo := grid.NewSquareMesh(n)
	for _, perm := range []*workload.Permutation{workload.Random(topo, 2), workload.Reversal(topo)} {
		r, _ := routePerm(t, n, perm, Config{Verify: true})
		checkMinimal(t, r)
	}
}

// A route allocates its slab and scratch once, not per column, stream or
// step: PR 12 took 572,954 allocations for this route, the flat state ~55.
// The gate sits where one allocation per column (81 columns × 32 phases)
// would already trip it.
func TestRouteAllocs(t *testing.T) {
	n := 81
	perm := workload.Random(grid.NewSquareMesh(n), 7)
	allocs := testing.AllocsPerRun(3, func() {
		r, err := New(Config{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Route(perm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("one n=81 route made %.0f allocations, the gate is 1000", allocs)
	}
	t.Logf("%.0f allocations per n=81 route", allocs)
}
