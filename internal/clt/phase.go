package clt

import (
	"fmt"

	"meshroute/internal/grid"
)

// move advances a one hop east (ex = 1) or north (ny = 1) in algorithm
// space, maintaining the per-node occupancy and its peak. Every move is
// checked to be minimal: it must not pass the packet's destination in
// either dimension (Theorem 20).
func (c *classRun) move(a *act, ex, ny, phaseStep int32) {
	a.x += ex
	a.y += ny
	if a.x > a.dx || a.y > a.dy {
		panic(fmt.Sprintf("clt: non-minimal move of packet %d past its destination", a.id))
	}
	p := &c.pkts[a.k]
	c.occ[c.nid(p.cur)]--
	p.cur.X += ex*c.east.X + ny*c.north.X
	p.cur.Y += ex*c.east.Y + ny*c.north.Y
	id := c.nid(p.cur)
	c.occ[id]++
	c.noteOccupancy(id)
	a.lastMove = phaseStep
	p.hops++
}

// orient records what one algorithm-space hop east and north is in real
// space under xf.
func (c *classRun) orient(xf xform) {
	o := xf.from(grid.XY(0, 0))
	e, n := xf.from(grid.XY(1, 0)), xf.from(grid.XY(0, 1))
	c.east, c.north = at(grid.XY(e.X-o.X, e.Y-o.Y)), at(grid.XY(n.X-o.X, n.Y-o.Y))
}

// tilingStart returns the smallest tile anchor of tiling tau with tiles of
// side m: tau·m/3 shifted one tile southwest so that edge ("virtual") tiles
// cover the whole mesh (Lemma 19: the three tilings are displaced by m/3 =
// 3d in each dimension).
func tilingStart(m, tau int) int {
	start := tau * m / 3
	if start > 0 {
		start -= m
	}
	return start
}

// tileIndex returns the tile of tiling tau containing algorithm-space
// coordinate c.
func tileIndex(c grid.Coord, m, tau int) (ti, tj int) {
	start := tilingStart(m, tau)
	return (c.X - start) / m, (c.Y - start) / m
}

// gather collects the class's active packets for a phase on tiling tau
// (tile side m, strip height d) into c.acts, ordered by tile (row-major),
// column and id, so that every tile and every column of a tile is one
// contiguous run. A packet participates if its location and destination
// share the tile; it is active if its destination strip i is at least 3
// above its current strip.
func (c *classRun) gather(xf xform, m, d, tau int) []act {
	c.orient(xf)
	start := tilingStart(m, tau)
	side := c.n/m + 1 // tiles per row and column, edge tiles included
	// Packets are visited in id order, so a stable counting sort on
	// (tile, column) is all the ordering takes.
	found := c.found[:0]
	count := c.count[:side*side*m+1]
	clear(count)
	for k := range c.pkts {
		p := &c.pkts[k]
		ac, ad := xf.to(p.cur.coord()), xf.to(p.dst.coord())
		ti, tj := tileIndex(ac, m, tau)
		if di, dj := tileIndex(ad, m, tau); di != ti || dj != tj {
			continue
		}
		ax, ay := start+ti*m, start+tj*m
		a := act{
			k: int32(k), id: p.id, tile: int32(tj*side + ti), lastMove: -1,
			x: int32(ac.X - ax), y: int32(ac.Y - ay),
			dx: int32(ad.X - ax), dy: int32(ad.Y - ay),
		}
		a.strip = a.dy/int32(d) + 1
		if a.y/int32(d)+1 > a.strip-3 {
			continue
		}
		count[int(a.tile)*m+int(a.x)+1]++
		found = append(found, a)
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	acts := append(c.acts[:0], found...)
	for k := range found {
		at := &count[int(found[k].tile)*m+int(found[k].x)]
		acts[*at] = found[k]
		*at++
	}
	return acts
}

// phase runs one Vertical (or, transposed, Horizontal) Phase of iteration
// iter with tile side m, strip height d = m/27, March capacity q, on
// tiling tau, emitting one span per sub-phase on the configured sink.
func (c *classRun) phase(vertical bool, m, d, q, tau, iter int) error {
	acts := c.gather(newXform(c.n, c.class, !vertical), m, d, tau)
	marchMax, ssMax, balMax := 0, 0, 0
	for lo, hi := 0, 0; lo < len(acts); lo = hi {
		for hi = lo + 1; hi < len(acts) && acts[hi].tile == acts[lo].tile; hi++ {
		}
		tile := acts[lo:hi]
		steps, err := c.march(tile, d, q, m)
		if err != nil {
			return err
		}
		marchMax = max(marchMax, steps)
		if steps, err = c.sortSmooth(tile, d, q); err != nil {
			return err
		}
		ssMax = max(ssMax, steps)
		if c.r.cfg.Verify {
			// The tile's real columns: edge tiles overhang the mesh.
			west := tilingStart(m, tau) + int(tile[0].tile)%(c.n/m+1)*m
			if err := checkLemma16(tile, min(m, c.n-west)); err != nil {
				return err
			}
		}
		if steps, err = c.balance(tile, m); err != nil {
			return err
		}
		balMax = max(balMax, steps)
	}

	// Closed-form durations (Lemmas 29, 30, 31) and duration checks.
	marchF := q*d - 1
	ssF := 2 * ((d - 1) + q*d)
	balF := 3*m - 4
	if marchMax > marchF {
		return fmt.Errorf("clt: March took %d steps, Lemma 29 allows %d (m=%d d=%d q=%d)", marchMax, marchF, m, d, q)
	}
	if ssMax > ssF {
		return fmt.Errorf("clt: Sort-and-Smooth took %d steps, Lemma 30 allows %d (m=%d d=%d q=%d)", ssMax, ssF, m, d, q)
	}
	if balMax > balF {
		return fmt.Errorf("clt: Balancing took %d steps, Lemma 31 allows %d (m=%d)", balMax, balF, m)
	}
	axis := "h"
	if vertical {
		axis = "v"
	}
	c.emitSpan("march", axis, iter, tau, marchMax, marchF)
	c.emitSpan("sortsmooth", axis, iter, tau, ssMax, ssF)
	c.emitSpan("balance", axis, iter, tau, balMax, balF)
	c.res.March.Formula += marchF
	c.res.March.Measured += marchMax
	c.res.SortSmooth.Formula += ssF
	c.res.SortSmooth.Measured += ssMax
	c.res.Balance.Formula += balF
	c.res.Balance.Measured += balMax
	c.res.TimeFormula += marchF + ssF + balF
	c.res.TimeMeasured += marchMax + ssMax + balMax
	return nil
}

// march implements Step 2 of the Vertical Phase: every active packet moves
// north along its column into strip i-3, packing as far north as possible,
// with each strip i-3 node refusing its q-th-plus active packet for strip
// i. A node holding several northbound packets prefers the one received
// from the south on the previous step (the Lemma 29 priority).
func (c *classRun) march(tile []act, d, q, m int) (int, error) {
	maxSteps := 0
	for lo, hi := 0, 0; lo < len(tile); lo = hi {
		for hi = lo + 1; hi < len(tile) && tile[hi].x == tile[lo].x; hi++ {
		}
		steps, err := c.marchColumn(tile[lo:hi], d, q, m)
		if err != nil {
			return 0, err
		}
		maxSteps = max(maxSteps, steps)
	}
	// Post-condition: every active parked in its strip i-3.
	for k := range tile {
		if a := &tile[k]; int(a.y)/d != int(a.strip)-4 {
			return 0, fmt.Errorf("clt: March left packet %d in strip %d, want %d (q=%d too small?)", a.id, int(a.y)/d+1, a.strip-3, q)
		}
	}
	return maxSteps, nil
}

// marchColumn simulates one column's March until quiescent. A step's
// moves are decided against the counts as the step found them and applied
// northernmost row first — the order the peak occupancy depends on.
func (c *classRun) marchColumn(col []act, d, q, m int) (int, error) {
	cnt, win := c.cnt, c.goNorth // cnt[row*29+i]: actives for strip i in the row
	live := c.live[:0]           // packets still below their strip's ceiling
	for k := range col {
		cnt[int(col[k].y)*29+int(col[k].strip)]++
		live = append(live, int32(k))
	}
	step := 0
	for {
		step++
		lo, hi := m, -1 // rows with a winner
		for j := 0; j < len(live); {
			a := &col[live[j]]
			l, i := int(a.y), int(a.strip)
			if l >= (i-3)*d-1 { // top row of strip i-3: parked for good
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			j++
			// Entering or advancing within strip i-3 requires the
			// target to hold fewer than q packets for i.
			if l+1 >= (i-4)*d && int(cnt[(l+1)*29+i]) >= q {
				continue
			}
			if w := win[l]; w >= 0 {
				// Prefer the packet received from the south last
				// step; break ties by id.
				am, wm := int(a.lastMove) == step-1, int(col[w].lastMove) == step-1
				if wm && !am || wm == am && col[w].id < a.id {
					continue
				}
			}
			win[l] = live[j-1]
			lo, hi = min(lo, l), max(hi, l)
		}
		if hi < 0 {
			break
		}
		for l := hi; l >= lo; l-- {
			if win[l] < 0 {
				continue
			}
			a := &col[win[l]]
			win[l] = -1
			cnt[l*29+int(a.strip)]--
			cnt[(l+1)*29+int(a.strip)]++
			c.move(a, 0, 1, int32(step))
		}
		if step > q*d+m {
			return 0, fmt.Errorf("clt: March column did not stabilize in %d steps", step)
		}
	}
	for k := range col {
		cnt[int(col[k].y)*29+int(col[k].strip)] = 0
	}
	c.live = live[:0]
	return step - 1, nil
}
