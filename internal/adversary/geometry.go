package adversary

import (
	"fmt"

	"meshroute/internal/grid"
)

// Geometry selects where a construction puts its sources, its destination
// columns and rows and its boxes, and which moves trigger an exchange.
// Everything else — placement, the exchange hook, the partner search, the
// run, the permutation and its replay — is one engine.
type Geometry uint8

// The three geometries of Sections 3 and 5.
const (
	// General is the Section 3 construction (Figure 1): N_i- and
	// E_i-packets in the southwest 1-box and exchange rules EX1–EX4. It
	// forces Ω(n²/k²) steps on every deterministic, destination-
	// exchangeable, minimal adaptive router. Delta and H extend it to the
	// nonminimal and h-h cases.
	General Geometry = iota
	// DimOrder is the Section 5 dimension-order construction (Figure 4
	// left): the westernmost (1-c)n nodes of the cn southernmost rows send
	// to the northern rows of the cn easternmost columns, and one rule
	// keeps N_j-packets (j > i) out of the N_i-column during steps
	// 1..i·dn. It forces Ω(n²/k) steps.
	DimOrder
	// FarthestFirst is the Section 5 construction against dimension-order
	// routing with the farthest-first outqueue policy (Figure 4 right):
	// the N_i-column is column n+1-i, every node of the cn southernmost
	// rows sends, higher classes start west of lower ones in every row,
	// and an N_j-packet entering its column early swaps roles with the
	// westernmost eligible N_{j-1}-packet.
	FarthestFirst
)

// String renders the geometry.
func (g Geometry) String() string {
	switch g {
	case DimOrder:
		return "dimension-order"
	case FarthestFirst:
		return "farthest-first"
	}
	return "general"
}

// nCol returns the 0-based local column of the N_i-column; colClass is its
// inverse. nCol(0) is the column just west of the N_1-column, so that
// inBox(lc, 0) is the 0-box.
func (c *Construction) nCol(i int) int {
	switch c.geometry {
	case DimOrder: // class 1 owns the westernmost of the cn easternmost columns
		return c.Par.N - c.Par.CN + i - 1
	case FarthestFirst: // the 1-based column n+1-i: class 1 owns the east edge
		return c.Par.N - i
	}
	return c.Par.CN + i - 2 // the paper's 1-based column cn-1+i
}

func (c *Construction) colClass(x int) int {
	switch c.geometry {
	case DimOrder:
		return x - (c.Par.N - c.Par.CN) + 1
	case FarthestFirst:
		return c.Par.N - x
	}
	return x - c.Par.CN + 2
}

// eRow returns the 0-based local row of the E_i-row. The dimension-order
// geometries have no E-packets; there every box is capped by the top row
// of the cn-row source band.
func (c *Construction) eRow(i int) int {
	if c.geometry != General {
		return c.Par.CN - 1
	}
	return c.Par.CN + i - 2
}

// kindOf classifies a destination: N_i if it lies in the N_i-column north
// of the E_i-row, E_i if it lies in the E_i-row east of the N_i-column.
func (c *Construction) kindOf(dst grid.NodeID) (Kind, int) {
	lc := c.local(dst)
	if i := c.colClass(lc.X); i >= 1 && i <= c.Par.L && lc.Y > c.eRow(i) {
		return KindN, i
	}
	if i := lc.Y - c.Par.CN + 2; c.geometry == General && i >= 1 && i <= c.Par.L && lc.X > c.nCol(i) {
		return KindE, i
	}
	return KindNone, 0
}

// inBox reports whether local coordinate lc lies in the i-box (i >= 0):
// west of and including the N_i-column, south of and including the E_i-row.
func (c *Construction) inBox(lc grid.Coord, i int) bool {
	return lc.X <= c.nCol(i) && lc.Y <= c.eRow(i)
}

// inBoxKind reports whether lc lies in the i-box extended by Delta on the
// kind's escape side: an N_i-packet may occupy the Delta columns east of
// the N_i-column (south of the E_i-row) before escaping; an E_i-packet the
// Delta rows north of the E_i-row.
func (c *Construction) inBoxKind(lc grid.Coord, kind Kind, i int) bool {
	if kind == KindN {
		return lc.X <= c.nCol(i)+c.Delta && lc.Y <= c.eRow(i)
	}
	return lc.Y <= c.eRow(i)+c.Delta && lc.X <= c.nCol(i)
}

// rosterEntry is one construction packet, in local coordinates.
type rosterEntry struct {
	src, dst grid.Coord
	kind     Kind
	i        int
}

// buildRoster computes sources and destinations for every construction
// packet in deterministic placement order. N_i-packets get unique
// destination rows in the N_i-column outside the i-box (h per row in the
// h-h variant); E_i-packets symmetric.
func (c *Construction) buildRoster() ([]rosterEntry, error) {
	par := c.Par
	cn, p, l := par.CN, par.P, par.L
	var roster []rosterEntry
	count := [3][]int{KindN: make([]int, l+1), KindE: make([]int, l+1)} // packets emitted per role
	emit := func(src grid.Coord, kind Kind, i int) {
		t := count[kind][i] / c.H
		dst := grid.XY(c.nCol(i), c.eRow(i)+1+t)
		if kind == KindE {
			dst = grid.XY(c.nCol(i)+1+t, c.eRow(i))
		}
		roster = append(roster, rosterEntry{src, dst, kind, i})
		count[kind][i]++
	}

	switch c.geometry {
	case DimOrder:
		// Sources row-major through the west of the band; classes in
		// ascending blocks of p.
		for y := 0; y < cn; y++ {
			for x := 0; x < par.N-cn && len(roster) < l*p; x++ {
				emit(grid.XY(x, y), KindN, 1+len(roster)/p)
			}
		}
		if len(roster) != l*p {
			return nil, fmt.Errorf("adversary: placed %d packets, want %d", len(roster), l*p)
		}
		return roster, nil
	case FarthestFirst:
		// Classes assigned east to west so that, within every row, class
		// indices are nondecreasing westward, and no N_i-packet starts in
		// the N_i-column for i >= 2. Band sources beyond the last class
		// are identity padding.
		for x := par.N - 1; x >= 0; x-- {
			for y := 0; y < cn; y++ {
				if i := 1 + len(roster)/p; i <= l {
					emit(grid.XY(x, y), KindN, i)
				} else {
					roster = append(roster, rosterEntry{src: grid.XY(x, y), dst: grid.XY(x, y)})
				}
			}
		}
		return roster, nil
	}

	// Step 1 of Section 3: the N_1-column at or south of the E_1-row holds
	// only N_1-packets and the E_1-row west of the N_1-column only
	// E_1-packets, h per node in the h-h variant.
	for y := 0; y < cn; y++ {
		for rep := 0; rep < c.H; rep++ {
			emit(grid.XY(cn-1, y), KindN, 1)
		}
	}
	for x := 0; x < cn-1; x++ {
		for rep := 0; rep < c.H; rep++ {
			emit(grid.XY(x, cn-1), KindE, 1)
		}
	}
	if count[KindN][1] > p || count[KindE][1] > p {
		return nil, fmt.Errorf("adversary: boundary needs more class-1 packets than p=%d allows", p)
	}
	// The rest fill the interior (the 0-box) row-major, h per node, in
	// the order N_1, E_1, N_2, E_2, ...
	used := 0
	for i := 1; i <= l; i++ {
		for _, kind := range [...]Kind{KindN, KindE} {
			for ; count[kind][i] < p; used++ {
				x, y := used/c.H%(cn-1), used/c.H/(cn-1)
				if y > cn-2 {
					return nil, fmt.Errorf("adversary: interior of 1-box overflowed")
				}
				emit(grid.XY(x, y), kind, i)
			}
		}
	}
	return roster, nil
}

// swapRole is the exchange a move triggers: the mover takes the role
// (kind, i) of a partner that lies in the box-box and is not scheduled to
// enter line — the N_i-column's x for KindN, the E_i-row's y for KindE.
type swapRole struct {
	kind         Kind
	i, box, line int
}

// rule applies the geometry's exchange rules to a mover of role (kind, j)
// scheduled to enter local node to at step.
func (c *Construction) rule(to grid.Coord, travel grid.Dir, kind Kind, j, step int) (swapRole, bool) {
	l, dn := c.Par.L, c.Par.DN
	switch c.geometry {
	case DimOrder:
		// An N_j-packet entering the N_i-column eastward within the band,
		// j > i, during steps 1..i·dn.
		if i := c.colClass(to.X); travel == grid.East && to.Y <= c.eRow(i) && i >= 1 && i <= l && j > i && step <= i*dn {
			return swapRole{KindN, i, i - 1, c.nCol(i)}, true
		}
	case FarthestFirst:
		// An N_j-packet (j >= 2) entering its own column eastward within
		// the band during steps 1..(j-1)·dn swaps with an N_{j-1}-packet
		// in the (j+1)-box that is not scheduled to enter the N_j-column.
		if j >= 2 && travel == grid.East && to.Y <= c.eRow(j) && to.X == c.nCol(j) && step <= (j-1)*dn {
			return swapRole{KindN, j - 1, j + 1, c.nCol(j)}, true
		}
	default:
		// Entering the N_i-column south of the E_i-row? EX2: N_j, j > i.
		// EX3: E_j, j >= i.
		if i := c.colClass(to.X); i >= 1 && i <= l && to.Y < c.eRow(i) && step <= i*dn &&
			(kind == KindN && j > i || kind == KindE && j >= i) {
			return swapRole{KindN, i, i - 1, c.nCol(i)}, true
		}
		// Entering the E_i-row west of the N_i-column? EX1: E_j, j > i.
		// EX4: N_j, j >= i.
		if i := to.Y - c.Par.CN + 2; i >= 1 && i <= l && to.X < c.nCol(i) && step <= i*dn &&
			(kind == KindE && j > i || kind == KindN && j >= i) {
			return swapRole{KindE, i, i - 1, c.eRow(i)}, true
		}
	}
	return swapRole{}, false
}
