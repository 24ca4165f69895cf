package clt

import (
	"cmp"
	"fmt"
	"slices"
)

// balance implements Step 4 of the Vertical Phase: Horizontal Balancing by
// the 2-rule — every node holding more than two active packets transmits
// east the active packet with the farthest east to go, until the tile is
// quiescent. Rows are independent, so the returned duration is the slowest
// row's, and Lemma 17 guarantees (checked by move) that no packet ever
// overshoots its destination column. A step's moves are applied in id
// order.
func (c *classRun) balance(tile []act, m int) (int, error) {
	cnt, win := c.cnt, c.goEast // per tile node y*m+x
	node := func(a *act) int { return int(a.y)*m + int(a.x) }
	for k := range tile {
		cnt[node(&tile[k])]++
	}
	step := 0
	for {
		moves := c.moves[:0]
		for k := range tile {
			a, v := &tile[k], node(&tile[k])
			if cnt[v] <= 2 {
				continue
			}
			if w := win[v]; w < 0 {
				moves = append(moves, int32(v))
			} else if b := &tile[w]; !farther(a.dx-a.x, a.id, b.dx-b.x, b.id) {
				continue
			}
			win[v] = int32(k)
		}
		c.moves = moves[:0]
		if len(moves) == 0 {
			break
		}
		for j, v := range moves {
			moves[j], win[v] = win[v], -1
			if a := &tile[moves[j]]; a.dx <= a.x {
				return 0, fmt.Errorf("clt: Lemma 16 violated: node x=%d holds >2 actives, all at their columns", a.x)
			}
		}
		step++
		if step > 3*m {
			return 0, fmt.Errorf("clt: Balancing did not stabilize in %d steps", step)
		}
		slices.SortFunc(moves, func(j, k int32) int { return cmp.Compare(tile[j].id, tile[k].id) })
		for _, k := range moves {
			a := &tile[k]
			cnt[node(a)]--
			c.move(a, 1, 0, int32(step))
			cnt[node(a)]++
		}
	}
	// Lemma 24: at most two active packets end Balancing in one node.
	for k := range tile {
		v := node(&tile[k])
		if cnt[v] > 2 {
			return 0, fmt.Errorf("clt: Lemma 24 violated: %d actives at node %d after Balancing", cnt[v], v)
		}
		cnt[v] = 0
	}
	return step, nil
}
