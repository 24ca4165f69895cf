package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDirOpposite(t *testing.T) {
	cases := []struct{ d, want Dir }{
		{North, South},
		{South, North},
		{East, West},
		{West, East},
		{NoDir, NoDir},
	}
	for _, c := range cases {
		if got := c.d.Opposite(); got != c.want {
			t.Errorf("Opposite(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestDirDelta(t *testing.T) {
	for d := Dir(0); d < NumDirs; d++ {
		dx, dy := d.Delta()
		if abs(dx)+abs(dy) != 1 {
			t.Errorf("Delta(%v) = (%d,%d), want unit step", d, dx, dy)
		}
		ox, oy := d.Opposite().Delta()
		if ox != -dx || oy != -dy {
			t.Errorf("Delta(%v) and Delta(opposite) not negations", d)
		}
	}
	if dx, dy := North.Delta(); dx != 0 || dy != 1 {
		t.Errorf("Delta(North) = (%d,%d), want (0,1): rows count south to north", dx, dy)
	}
	if dx, dy := East.Delta(); dx != 1 || dy != 0 {
		t.Errorf("Delta(East) = (%d,%d), want (1,0): columns count west to east", dx, dy)
	}
	for d := NoDir; d != 0; d++ { // NoDir and every value past it, up to the wrap at 255
		if dx, dy := d.Delta(); dx != 0 || dy != 0 {
			t.Errorf("Delta(%v) = (%d,%d), want (0,0)", d, dx, dy)
		}
	}
}

func TestDirHorizontal(t *testing.T) {
	if !East.Horizontal() || !West.Horizontal() {
		t.Error("East/West must be horizontal")
	}
	if North.Horizontal() || South.Horizontal() {
		t.Error("North/South must not be horizontal")
	}
}

func TestDirString(t *testing.T) {
	if North.String() != "North" || NoDir.String() != "NoDir" {
		t.Errorf("unexpected names %q %q", North, NoDir)
	}
	if Dir(9).String() == "" {
		t.Error("out-of-range Dir must still render")
	}
}

func TestDirSet(t *testing.T) {
	var s DirSet
	if s.Count() != 0 {
		t.Fatal("empty set must have count 0")
	}
	s = s.Set(North).Set(East)
	if !s.Has(North) || !s.Has(East) || s.Has(South) || s.Has(West) {
		t.Fatalf("set contents wrong: %v", s)
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d, want 2", s.Count())
	}
	dirs := s.Dirs()
	if len(dirs) != 2 || dirs[0] != North || dirs[1] != East {
		t.Fatalf("Dirs = %v, want [North East]", dirs)
	}
	if got := s.String(); got != "{North East}" {
		t.Fatalf("String = %q", got)
	}
}

// TestDirSetDimOrder holds DimOrder to the row-first priority list on every
// set, the spot cases spelled out.
func TestDirSetDimOrder(t *testing.T) {
	cases := []struct {
		prof DirSet
		want Dir
	}{
		{0, NoDir},
		{DirSet(0).Set(East), East},
		{DirSet(0).Set(West), West},
		{DirSet(0).Set(North), North},
		{DirSet(0).Set(South), South},
		{DirSet(0).Set(North).Set(East), East},
		{DirSet(0).Set(South).Set(West), West},
		{DirSet(0).Set(East).Set(West), East},
		{DirSet(0).Set(North).Set(South), North},
	}
	for _, c := range cases {
		if got := c.prof.DimOrder(); got != c.want {
			t.Errorf("%v.DimOrder() = %v, want %v", c.prof, got, c.want)
		}
	}
	for s := DirSet(0); s <= AllDirs; s++ {
		want := NoDir
		for _, d := range [...]Dir{South, North, West, East} {
			if s.Has(d) {
				want = d
			}
		}
		if got := s.DimOrder(); got != want {
			t.Errorf("%v.DimOrder() = %v, want %v", s, got, want)
		}
	}
}

func TestMeshIDCoordRoundTrip(t *testing.T) {
	m := NewMesh(7, 5)
	if m.N() != 35 || m.Width() != 7 || m.Height() != 5 {
		t.Fatal("mesh dimensions wrong")
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 7; x++ {
			c := Coord{x, y}
			if got := m.CoordOf(m.ID(c)); got != c {
				t.Fatalf("round trip %v -> %v", c, got)
			}
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := NewSquareMesh(4)
	// Southwest corner has only North and East.
	sw := m.ID(Coord{0, 0})
	if _, ok := m.Neighbor(sw, South); ok {
		t.Error("corner must not have South neighbor")
	}
	if _, ok := m.Neighbor(sw, West); ok {
		t.Error("corner must not have West neighbor")
	}
	if n, ok := m.Neighbor(sw, North); !ok || m.CoordOf(n) != (Coord{0, 1}) {
		t.Error("North neighbor wrong")
	}
	if n, ok := m.Neighbor(sw, East); !ok || m.CoordOf(n) != (Coord{1, 0}) {
		t.Error("East neighbor wrong")
	}
	// Interior node has all four.
	mid := m.ID(Coord{2, 2})
	for d := Dir(0); d < NumDirs; d++ {
		if _, ok := m.Neighbor(mid, d); !ok {
			t.Errorf("interior node missing %v neighbor", d)
		}
	}
}

func TestMeshDist(t *testing.T) {
	m := NewSquareMesh(8)
	a := m.ID(Coord{1, 2})
	b := m.ID(Coord{5, 7})
	if got := m.Dist(a, b); got != 4+5 {
		t.Fatalf("Dist = %d, want 9", got)
	}
	if m.Dist(a, a) != 0 {
		t.Fatal("self distance must be 0")
	}
}

func TestMeshProfitable(t *testing.T) {
	m := NewSquareMesh(8)
	from := m.ID(Coord{3, 3})
	cases := []struct {
		dst  Coord
		want DirSet
	}{
		{Coord{3, 3}, 0},
		{Coord{5, 3}, DirSet(0).Set(East)},
		{Coord{1, 3}, DirSet(0).Set(West)},
		{Coord{3, 6}, DirSet(0).Set(North)},
		{Coord{3, 0}, DirSet(0).Set(South)},
		{Coord{6, 6}, DirSet(0).Set(North).Set(East)},
		{Coord{0, 0}, DirSet(0).Set(South).Set(West)},
		{Coord{6, 0}, DirSet(0).Set(South).Set(East)},
		{Coord{0, 6}, DirSet(0).Set(North).Set(West)},
	}
	for _, c := range cases {
		if got := m.Profitable(from, m.ID(c.dst)); got != c.want {
			t.Errorf("Profitable to %v = %v, want %v", c.dst, got, c.want)
		}
	}
}

func TestMeshWraparound(t *testing.T) {
	if NewSquareMesh(3).Wraparound() {
		t.Error("mesh must not wrap")
	}
	if !NewSquareTorus(3).Wraparound() {
		t.Error("torus must wrap")
	}
}

func TestTorusNeighbors(t *testing.T) {
	tr := NewSquareTorus(4)
	sw := tr.ID(Coord{0, 0})
	if n, ok := tr.Neighbor(sw, South); !ok || tr.CoordOf(n) != (Coord{0, 3}) {
		t.Error("torus South wrap wrong")
	}
	if n, ok := tr.Neighbor(sw, West); !ok || tr.CoordOf(n) != (Coord{3, 0}) {
		t.Error("torus West wrap wrong")
	}
	ne := tr.ID(Coord{3, 3})
	if n, ok := tr.Neighbor(ne, North); !ok || tr.CoordOf(n) != (Coord{3, 0}) {
		t.Error("torus North wrap wrong")
	}
	if n, ok := tr.Neighbor(ne, East); !ok || tr.CoordOf(n) != (Coord{0, 3}) {
		t.Error("torus East wrap wrong")
	}
}

func TestTorusDist(t *testing.T) {
	tr := NewSquareTorus(8)
	a := tr.ID(Coord{0, 0})
	b := tr.ID(Coord{7, 7})
	if got := tr.Dist(a, b); got != 2 {
		t.Fatalf("torus Dist = %d, want 2 (wraparound)", got)
	}
	c := tr.ID(Coord{4, 0})
	if got := tr.Dist(a, c); got != 4 {
		t.Fatalf("torus antipodal Dist = %d, want 4", got)
	}
}

func TestTorusProfitableTieBothWays(t *testing.T) {
	tr := NewSquareTorus(8)
	from := tr.ID(Coord{0, 0})
	dst := tr.ID(Coord{4, 0}) // antipodal in X: East and West equidistant
	got := tr.Profitable(from, dst)
	if !got.Has(East) || !got.Has(West) {
		t.Fatalf("antipodal X must make both East and West profitable, got %v", got)
	}
	if got.Has(North) || got.Has(South) {
		t.Fatalf("Y dims equal, no vertical profit expected, got %v", got)
	}
}

func TestTorusProfitableShortWay(t *testing.T) {
	tr := NewSquareTorus(8)
	from := tr.ID(Coord{1, 1})
	dst := tr.ID(Coord{7, 1}) // going West (2 hops) beats East (6 hops)
	got := tr.Profitable(from, dst)
	if !got.Has(West) || got.Has(East) {
		t.Fatalf("short way is West, got %v", got)
	}
}

// Property: every profitable direction decreases distance by exactly one,
// and every non-profitable existing outlink does not decrease it.
func testProfitableDecreasesDist(t *testing.T, topo Topology) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		a := NodeID(rng.Intn(topo.N()))
		b := NodeID(rng.Intn(topo.N()))
		prof := topo.Profitable(a, b)
		base := topo.Dist(a, b)
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := topo.Neighbor(a, d)
			if !ok {
				if prof.Has(d) {
					t.Fatalf("profitable dir %v has no outlink at %v", d, topo.CoordOf(a))
				}
				continue
			}
			nd := topo.Dist(nb, b)
			if prof.Has(d) && nd != base-1 {
				t.Fatalf("profitable %v from %v to %v: dist %d -> %d", d, topo.CoordOf(a), topo.CoordOf(b), base, nd)
			}
			if !prof.Has(d) && nd < base {
				t.Fatalf("non-profitable %v from %v to %v decreases dist %d -> %d", d, topo.CoordOf(a), topo.CoordOf(b), base, nd)
			}
		}
		if base > 0 && prof == 0 {
			t.Fatalf("dist %d > 0 but no profitable dirs from %v to %v", base, topo.CoordOf(a), topo.CoordOf(b))
		}
		if base == 0 && prof != 0 {
			t.Fatalf("at destination but profitable dirs %v", prof)
		}
	}
}

func TestMeshProfitableDecreasesDist(t *testing.T) {
	testProfitableDecreasesDist(t, NewMesh(9, 6))
}

func TestTorusProfitableDecreasesDist(t *testing.T) {
	testProfitableDecreasesDist(t, NewTorus(9, 6))
	testProfitableDecreasesDist(t, NewTorus(8, 8)) // even: antipodal ties
}

// Property (testing/quick): mesh distance is a metric and matches the
// coordinate formula.
func TestQuickMeshDistMetric(t *testing.T) {
	m := NewSquareMesh(16)
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := m.ID(Coord{int(ax) % 16, int(ay) % 16})
		b := m.ID(Coord{int(bx) % 16, int(by) % 16})
		c := m.ID(Coord{int(cx) % 16, int(cy) % 16})
		// symmetry, identity, triangle inequality
		return m.Dist(a, b) == m.Dist(b, a) &&
			(m.Dist(a, b) == 0) == (a == b) &&
			m.Dist(a, c) <= m.Dist(a, b)+m.Dist(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): torus distance is a metric bounded by mesh
// distance.
func TestQuickTorusDistMetric(t *testing.T) {
	tr := NewSquareTorus(16)
	me := NewSquareMesh(16)
	f := func(ax, ay, bx, by, cx, cy uint8) bool {
		a := tr.ID(Coord{int(ax) % 16, int(ay) % 16})
		b := tr.ID(Coord{int(bx) % 16, int(by) % 16})
		c := tr.ID(Coord{int(cx) % 16, int(cy) % 16})
		return tr.Dist(a, b) == tr.Dist(b, a) &&
			(tr.Dist(a, b) == 0) == (a == b) &&
			tr.Dist(a, c) <= tr.Dist(a, b)+tr.Dist(b, c) &&
			tr.Dist(a, b) <= me.Dist(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): neighbor links are symmetric — (u,v) in E iff
// (v,u) in E, with opposite directions.
func TestQuickNeighborSymmetry(t *testing.T) {
	topos := []Topology{NewMesh(11, 7), NewTorus(11, 7)}
	for _, topo := range topos {
		f := func(x, y, dd uint8) bool {
			c := Coord{int(x) % topo.Width(), int(y) % topo.Height()}
			d := Dir(dd % NumDirs)
			u := topo.ID(c)
			v, ok := topo.Neighbor(u, d)
			if !ok {
				return true
			}
			back, ok2 := topo.Neighbor(v, d.Opposite())
			return ok2 && back == u
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%T: %v", topo, err)
		}
	}
}

func TestPanicsOnBadSizes(t *testing.T) {
	mustPanic(t, func() { NewMesh(0, 3) })
	mustPanic(t, func() { NewTorus(3, -1) })
	m := NewSquareMesh(3)
	mustPanic(t, func() { m.ID(Coord{3, 0}) })
	tr := NewSquareTorus(3)
	mustPanic(t, func() { tr.ID(Coord{0, -1}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// The closed-form geometry — id%w, id/w and modular arithmetic per query —
// that Grid computes without dividing, kept as the reference it is checked
// against.

func refMod(x, m int) int {
	x %= m
	if x < 0 {
		x += m
	}
	return x
}

func refWrapDist(a, b, m int) int {
	d := abs(a - b)
	if m-d < d {
		return m - d
	}
	return d
}

type refGrid struct {
	w, h int
	wrap bool
}

func (r refGrid) coordOf(id NodeID) Coord { return Coord{X: int(id) % r.w, Y: int(id) / r.w} }

func (r refGrid) neighbor(id NodeID, d Dir) (NodeID, bool) {
	c := r.coordOf(id).Add(d)
	if r.wrap {
		c.X, c.Y = refMod(c.X, r.w), refMod(c.Y, r.h)
	} else if c.X < 0 || c.X >= r.w || c.Y < 0 || c.Y >= r.h {
		return 0, false
	}
	return NodeID(c.Y*r.w + c.X), true
}

func (r refGrid) dist(a, b NodeID) int {
	ca, cb := r.coordOf(a), r.coordOf(b)
	if r.wrap {
		return refWrapDist(ca.X, cb.X, r.w) + refWrapDist(ca.Y, cb.Y, r.h)
	}
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func (r refGrid) profitable(from, dst NodeID) DirSet {
	cf, cd := r.coordOf(from), r.coordOf(dst)
	var s DirSet
	if !r.wrap {
		if cd.X > cf.X {
			s = s.Set(East)
		} else if cd.X < cf.X {
			s = s.Set(West)
		}
		if cd.Y > cf.Y {
			s = s.Set(North)
		} else if cd.Y < cf.Y {
			s = s.Set(South)
		}
		return s
	}
	if cf.X != cd.X {
		fwd := refMod(cd.X-cf.X, r.w) // hops going East
		bwd := r.w - fwd              // hops going West
		if fwd <= bwd {
			s = s.Set(East)
		}
		if bwd <= fwd {
			s = s.Set(West)
		}
	}
	if cf.Y != cd.Y {
		fwd := refMod(cd.Y-cf.Y, r.h) // hops going North
		bwd := r.h - fwd              // hops going South
		if fwd <= bwd {
			s = s.Set(North)
		}
		if bwd <= fwd {
			s = s.Set(South)
		}
	}
	return s
}

// TestGeometryMatchesClosedForm checks every query against the closed-form
// reference, exhaustively over all nodes, directions and node pairs. The
// sizes cover a dimension of 1 (a torus link wraps onto its own node), of 2
// (both ways around reach the same neighbour), even sides (antipodal ties
// profitable both ways) and non-square grids.
func TestGeometryMatchesClosedForm(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 5}, {2, 2}, {2, 7}, {3, 4}, {4, 4}, {5, 5}, {6, 3}}
	for _, wh := range sizes {
		for _, wrap := range []bool{false, true} {
			w, h := wh[0], wh[1]
			g, ref := newGrid(w, h, wrap), refGrid{w, h, wrap}
			if g.N() != w*h || g.Width() != w || g.Height() != h || g.Wraparound() != wrap {
				t.Fatalf("%dx%d wrap=%v: dimensions %dx%d n=%d wrap=%v", w, h, wrap, g.Width(), g.Height(), g.N(), g.Wraparound())
			}
			for a := NodeID(0); int(a) < g.N(); a++ {
				c := ref.coordOf(a)
				if g.CoordOf(a) != c || g.ID(c) != a {
					t.Fatalf("%dx%d wrap=%v: CoordOf(%d) = %v, ID(%v) = %d; want %v, %d", w, h, wrap, a, g.CoordOf(a), c, g.ID(c), c, a)
				}
				var out DirSet
				for d := Dir(0); d < NumDirs; d++ {
					nb, ok := g.Neighbor(a, d)
					wantNb, wantOK := ref.neighbor(a, d)
					if nb != wantNb || ok != wantOK {
						t.Fatalf("%dx%d wrap=%v: Neighbor(%v, %v) = %d,%v; want %d,%v", w, h, wrap, c, d, nb, ok, wantNb, wantOK)
					}
					if wantOK {
						out = out.Set(d)
					}
				}
				if g.Outlinks(a) != out {
					t.Fatalf("%dx%d wrap=%v: Outlinks(%v) = %v, want %v", w, h, wrap, c, g.Outlinks(a), out)
				}
				for b := NodeID(0); int(b) < g.N(); b++ {
					if got, want := g.Dist(a, b), ref.dist(a, b); got != want {
						t.Fatalf("%dx%d wrap=%v: Dist(%v, %v) = %d, want %d", w, h, wrap, c, ref.coordOf(b), got, want)
					}
					if got, want := g.Profitable(a, b), ref.profitable(a, b); got != want {
						t.Fatalf("%dx%d wrap=%v: Profitable(%v, %v) = %v, want %v", w, h, wrap, c, ref.coordOf(b), got, want)
					}
				}
			}
		}
	}
}

// TestCoordOfExactAtExtremes checks the reciprocal multiplication that
// replaces id/w at the widths and identifiers where a rounded reciprocal
// would first go wrong: the largest identifiers, widths of one and of
// nearly 2^31, and identifiers on either side of a row boundary.
func TestCoordOfExactAtExtremes(t *testing.T) {
	const maxID = 1<<31 - 1
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 2, 3, 7, 96, 1<<15 + 1, 1<<16 - 1, 1 << 30, 1<<30 + 1, maxID - 1, maxID} {
		g := NewMesh(w, 1) // the row count plays no part in CoordOf
		ids := []int{0, 1, w - 1, w, w + 1, maxID / w * w, maxID/w*w - 1, maxID - 1, maxID}
		for i := 0; i < 1000; i++ {
			ids = append(ids, rng.Intn(maxID), rng.Intn(maxID/w+1)*w) // anywhere, and a row start
		}
		for _, id := range ids {
			if id > maxID { // w+1 at the widest grids
				continue
			}
			if got, want := g.CoordOf(NodeID(id)), (Coord{X: id % w, Y: id / w}); got != want {
				t.Fatalf("w=%d: CoordOf(%d) = %v, want %v", w, id, got, want)
			}
		}
	}
}

// checkAgainstClosedForm compares every query about a, and about the pair
// (a, b) in both orders, with the closed-form reference on a w×h grid.
func checkAgainstClosedForm(t *testing.T, w, h int, wrap bool, a, b NodeID) {
	t.Helper()
	g, ref := newGrid(w, h, wrap), refGrid{w, h, wrap}
	if got, want := g.CoordOf(a), ref.coordOf(a); got != want {
		t.Fatalf("%dx%d wrap=%v: CoordOf(%d) = %v, want %v", w, h, wrap, a, got, want)
	}
	var out DirSet
	for d := Dir(0); d < NumDirs; d++ {
		nb, ok := g.Neighbor(a, d)
		wantNb, wantOK := ref.neighbor(a, d)
		if nb != wantNb || ok != wantOK {
			t.Fatalf("%dx%d wrap=%v: Neighbor(%d, %v) = %d,%v; want %d,%v", w, h, wrap, a, d, nb, ok, wantNb, wantOK)
		}
		if wantOK {
			out = out.Set(d)
		}
	}
	if got := g.Outlinks(a); got != out {
		t.Fatalf("%dx%d wrap=%v: Outlinks(%d) = %v, want %v", w, h, wrap, a, got, out)
	}
	for _, p := range [][2]NodeID{{a, b}, {b, a}} {
		if got, want := g.Dist(p[0], p[1]), ref.dist(p[0], p[1]); got != want {
			t.Fatalf("%dx%d wrap=%v: Dist(%d, %d) = %d, want %d", w, h, wrap, p[0], p[1], got, want)
		}
		if got, want := g.Profitable(p[0], p[1]), ref.profitable(p[0], p[1]); got != want {
			t.Fatalf("%dx%d wrap=%v: Profitable(%d, %d) = %v, want %v", w, h, wrap, p[0], p[1], got, want)
		}
	}
}

// TestGeometryAtTheEdges puts the sign-bit arithmetic where it could go
// wrong and the exhaustive small grids cannot reach: dimensions of 1 and 2,
// rows and columns as long as a NodeID allows, the grid whose last node is
// identifier 2^31-1, and on every torus the exact tie 2d == m of an even
// ring next to the d = ⌊m/2⌋, ⌈m/2⌉ of an odd one. On each grid every pair
// of nodes drawn from the corners, the edges and either side of the middle
// is checked.
func TestGeometryAtTheEdges(t *testing.T) {
	const maxID = 1<<31 - 1
	sizes := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {2, 2}, {1, 9}, {9, 1}, {1, 10}, {10, 1},
		{2, 9}, {9, 2}, {6, 7}, {7, 6}, {96, 96}, {97, 97},
		{1, maxID}, {maxID, 1}, {2, maxID / 2}, {maxID / 2, 2},
		{1 << 16, 1 << 15}, // N = 2^31: the last node is maxID
		{46341, 46340}, {46340, 46341},
	}
	around := func(m int) []int { // 0, 1, either side of the middle, m-2, m-1
		var vs []int
		for _, v := range []int{0, 1, m/2 - 1, m / 2, m/2 + 1, m - 2, m - 1} {
			if v >= 0 && v < m && (len(vs) == 0 || v > vs[len(vs)-1]) {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for _, wh := range sizes {
		w, h := wh[0], wh[1]
		var nodes []NodeID
		for _, y := range around(h) {
			for _, x := range around(w) {
				nodes = append(nodes, NodeID(y*w+x))
			}
		}
		for _, wrap := range []bool{false, true} {
			for _, a := range nodes {
				for _, b := range nodes {
					checkAgainstClosedForm(t, w, h, wrap, a, b)
				}
			}
		}
		// The tie itself, stated without the reference: half-way around an
		// even ring both ways are profitable, around an odd one only the
		// shorter.
		if w >= 2 {
			g := NewTorus(w, h)
			there, back := DirSet(1)<<East, DirSet(1)<<West
			if w%2 == 0 {
				there, back = there|back, there|back
			}
			mid := NodeID(w / 2)
			if got := g.Profitable(0, mid); got != there {
				t.Errorf("%dx%d torus: Profitable((0,0), (%d,0)) = %v, want %v", w, h, mid, got, there)
			}
			if got := g.Profitable(mid, 0); got != back {
				t.Errorf("%dx%d torus: Profitable((%d,0), (0,0)) = %v, want %v", w, h, mid, got, back)
			}
		}
	}
}

// FuzzGeometryMatchesClosedForm checks Profitable, Neighbor, Outlinks, Dist
// and CoordOf against the closed-form reference on any grid a NodeID can
// address: the raw inputs are folded into 1 ≤ w, 1 ≤ h, w·h ≤ 2^31 and
// 0 ≤ a, b < w·h.
func FuzzGeometryMatchesClosedForm(f *testing.F) {
	f.Add(int32(96), int32(96), true, int32(0), int32(48*96+48)) // the tie in both dimensions
	f.Add(int32(97), int32(96), true, int32(5), int32(48*97+53))
	f.Add(int32(32), int32(32), false, int32(31), int32(32*31))
	f.Add(int32(1), int32(1), true, int32(0), int32(0))
	f.Add(int32(2), int32(1<<30), true, int32(1), int32(1<<31-1))
	f.Add(int32(1<<31-1), int32(1), false, int32(0), int32(1<<31-2))
	f.Fuzz(func(t *testing.T, w, h int32, wrap bool, a, b int32) {
		into := func(v int32, m int) int { return int(uint32(v)) % m } // [0, m), the identity there
		gw := 1 + into(w-1, 1<<31-1)
		gh := 1 + into(h-1, (1<<31)/gw)
		checkAgainstClosedForm(t, gw, gh, wrap, NodeID(into(a, gw*gh)), NodeID(into(b, gw*gh)))
	})
}
