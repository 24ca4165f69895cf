package bounds

import (
	"errors"
	"strings"
	"testing"

	"meshroute/internal/grid"
)

// TestTable pins every row's interval on small instances, the cut row's on
// demand a cut binds harder than distance does, and that every row of
// Table has a case.
func TestTable(t *testing.T) {
	mesh, line, ring := grid.NewSquareMesh(27), grid.NewMesh(2, 1), grid.NewTorus(2, 1)
	// Three packets from one node to its east neighbour, and three back:
	// distance 1, one link each way across the column cut on the mesh and
	// two on the torus.
	flood := []grid.Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}}
	back := []grid.Pair{{Src: 1, Dst: 0}, {Src: 1, Dst: 0}, {Src: 1, Dst: 0}}
	// A reversal of the 27×27 mesh: the farthest packets cross the whole
	// diagonal, and the cuts beside the middle row carry 13·27 packets
	// each way on 27 links.
	var rev []grid.Pair
	for id := range 27 * 27 {
		rev = append(rev, grid.Pair{Src: grid.NodeID(id), Dst: grid.NodeID(27*27 - 1 - id)})
	}
	seen := map[*Row]bool{}
	for _, tc := range []struct {
		row    *Row
		in     Instance
		lo, hi int
		ok     bool
	}{
		{Theorem13, Instance{L: 3, DN: 48}, 144, Unbounded, true},
		{Theorem13, Instance{L: 1, DN: 48}, 48, Unbounded, true},
		{Theorem13, Instance{L: 0, DN: 48}, 0, Unbounded, false},
		{Theorem15, Instance{Topo: mesh, K: 2}, 0, 20 * (27*27/2 + 27), true},
		{Theorem15, Instance{Topo: mesh}, 0, Unbounded, false},
		{Lemma28, Instance{}, 0, 834, true},
		{Theorem34, Instance{Topo: mesh}, 0, 972 * 27, true},
		{Theorem34, Instance{Topo: mesh, ImprovedQ: true}, 0, 564 * 27, true},
		{Scheduled, Instance{Topo: mesh, K: 2, Pairs: rev, Congestion: 40}, 0, 3 * (40 + 52), true},
		{Scheduled, Instance{K: 3, H: 3}, 0, 0, false},
		{Scheduled, Instance{K: 1}, 0, 0, false},
		{Distance, Instance{Topo: mesh, Pairs: rev}, 52, Unbounded, true},
		{Distance, Instance{Topo: line, Pairs: flood}, 1, Unbounded, true},
		{Cut, Instance{Topo: mesh, Pairs: rev}, 13, Unbounded, true},
		{Cut, Instance{Topo: line, Pairs: flood}, 3, Unbounded, true},
		{Cut, Instance{Topo: line, Pairs: back}, 3, Unbounded, true},
		{Cut, Instance{Topo: ring, Pairs: flood}, 2, Unbounded, true},
		{Cut, Instance{Topo: ring, Pairs: flood[:1]}, 1, Unbounded, true},
	} {
		seen[tc.row] = true
		if lo, hi, ok := tc.row.Bound(tc.in); lo != tc.lo || hi != tc.hi || ok != tc.ok {
			t.Errorf("%s on %+v: (%d, %d, %t), want (%d, %d, %t)", tc.row.Result, tc.in, lo, hi, ok, tc.lo, tc.hi, tc.ok)
		}
	}
	for _, row := range Table {
		if !seen[row] || row.Result == "" || row.Binds == "" || row.Of == "" {
			t.Errorf("row %q: every row has a case and names its result, what it binds and what it bounds", row.Result)
		}
	}
	if err := Check(Instance{Topo: line, Pairs: flood}, 2, Cut); err == nil || !strings.Contains(err.Error(), "cut bound: last delivery step 2, below its bound 3") {
		t.Errorf("Check below the cut bound: %v", err)
	}
	if err := Check(Instance{}, 835, Lemma28); err == nil || !strings.Contains(err.Error(), "above its bound 834") {
		t.Errorf("Check above Lemma 28: %v", err)
	}
	if err := errors.Join(Check(Instance{Topo: line, Pairs: flood}, 3, Cut), Check(Instance{}, 834, Lemma28)); err != nil {
		t.Errorf("Check on the bounds themselves: %v", err)
	}
	if err := Check(Instance{K: 1}, 0, Scheduled); err == nil || !strings.Contains(err.Error(), "does not bind") {
		t.Errorf("Check outside the scheduled row's precondition: %v", err)
	}
}
