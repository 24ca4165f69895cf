package clt

import (
	"fmt"
	"math/bits"
	"slices"
)

// baseCase finishes a class pass with the dimension-order farthest-first
// algorithm (Section 6.1, base case; Lemma 32). When the pass ran at least
// one tile iteration, every packet is within two rows and two columns of
// its destination and the base case completes within 14 steps with at most
// 9 packets per node; for meshes smaller than 27 the base case IS the
// whole pass and those bounds do not apply.
func (c *classRun) baseCase(afterIterations bool) error {
	xf := newXform(c.n, c.class, false)
	c.orient(xf)
	live := c.acts[:0]
	for k := range c.pkts {
		p := &c.pkts[k]
		a, b := xf.to(p.cur.coord()), xf.to(p.dst.coord())
		if afterIterations && (b.X-a.X > 2 || b.Y-a.Y > 2) {
			return fmt.Errorf("clt: packet %d entered base case %d cols, %d rows from its destination (Lemma 18 allows 2)",
				p.id, b.X-a.X, b.Y-a.Y)
		}
		live = append(live, act{k: int32(k), id: p.id, x: int32(a.X), y: int32(a.Y), dx: int32(b.X), dy: int32(b.Y)})
	}
	c.acts = live[:0]

	limit := 14
	if !afterIterations {
		limit = 100 * c.n * c.n
	}
	step := 0
	// outlink is the link a wants next and how far it has to go on it.
	outlink := func(a *act) (win []int32, dist int32) {
		if a.dx > a.x {
			return c.goEast, a.dx - a.x
		}
		return c.goNorth, a.dy - a.y
	}
	hop := func(a *act, ex, ny int32) {
		c.move(a, ex, ny, int32(step))
		if a.x == a.dx && a.y == a.dy { // delivered: leaves the network
			p := &c.pkts[a.k]
			p.done = true
			c.occ[c.nid(p.cur)]--
		}
	}
	for len(live) > 0 {
		step++
		if step > limit {
			return fmt.Errorf("clt: base case exceeded %d steps with %d packets left", limit, len(live))
		}
		// One packet per node and outlink, dimension order (east
		// first), farthest first.
		for k := range live {
			a := &live[k]
			v := int(a.y)*c.n + int(a.x)
			c.sending[v>>6] |= 1 << (v & 63)
			win, dist := outlink(a)
			if w := win[v]; w >= 0 {
				if _, wd := outlink(&live[w]); !farther(dist, a.id, wd, live[w].id) {
					continue
				}
			}
			win[v] = int32(k)
		}
		// Apply south to north, west to east, east link before north.
		for w, word := range c.sending {
			for c.sending[w] = 0; word != 0; word &= word - 1 {
				v := w<<6 + bits.TrailingZeros64(word)
				if k := c.goEast[v]; k >= 0 {
					c.goEast[v] = -1
					hop(&live[k], 1, 0)
				}
				if k := c.goNorth[v]; k >= 0 {
					c.goNorth[v] = -1
					hop(&live[k], 0, 1)
				}
			}
		}
		live = slices.DeleteFunc(live, func(a act) bool { return c.pkts[a.k].done })
	}
	c.res.BaseCaseSteps += step
	formula := step // no closed form without iterations (n < 27)
	if afterIterations {
		formula = 14 // Lemma 32
	}
	c.emitSpan("basecase", "", 0, 0, step, formula)
	c.res.TimeFormula += formula
	c.res.TimeMeasured += step
	return nil
}

// checkLemma16 (Verify mode) asserts the prefix property after
// Sort-and-Smooth: for any row, any column c, and any s >= 1, the first s
// nodes west of and including column c hold at most 2s active packets with
// destination column at or west of c. cols is the number of real columns in
// the tile (an edge tile overhangs the mesh).
func checkLemma16(tile []act, cols int) error {
	byRow := map[int32][]*act{}
	for k := range tile {
		byRow[tile[k].y] = append(byRow[tile[k].y], &tile[k])
	}
	for y, row := range byRow {
		for c := int32(0); int(c) < cols; c++ {
			count := 0
			for x := c; x >= 0; x-- {
				for _, a := range row {
					if a.x == x && a.dx <= c {
						count++
					}
				}
				if s := int(c - x + 1); count > 2*s {
					return fmt.Errorf("clt: Lemma 16 violated in tile row %d: %d (<=%d)-packets in window [%d..%d]",
						y, count, c, x, c)
				}
			}
		}
	}
	return nil
}
