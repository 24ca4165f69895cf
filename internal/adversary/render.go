package adversary

import (
	"fmt"
	"strings"

	"meshroute/internal/sim"
)

// RenderLayout draws the construction's static geometry — Figure 1 of the
// paper: the 1-box in the southwest corner, the N_i-columns and E_i-rows,
// and the destination regions. One character per node, north up. It draws
// the general geometry only.
func (c *Construction) RenderLayout() string {
	n, cn, l := c.Par.N, c.Par.CN, c.Par.L
	rows := make([][]byte, n)
	for y := range rows {
		rows[y] = []byte(strings.Repeat(".", n))
	}
	// 1-box.
	for y := 0; y < cn; y++ {
		for x := 0; x < cn; x++ {
			rows[y][x] = '1'
		}
	}
	// N_i-columns north of the E_i-row (destination regions) and E_i-rows
	// east of the N_i-column.
	for i := 1; i <= l; i++ {
		for y := c.eRow(i) + 1; y < n; y++ {
			rows[y][c.nCol(i)] = 'N'
		}
		for x := c.nCol(i) + 1; x < n; x++ {
			rows[c.eRow(i)][x] = 'E'
		}
	}
	return renderRows(rows) + fmt.Sprintf("[Figure 1: n=%d k=%d cn=%d l=%d; 1=1-box, N/E=destination columns/rows]\n",
		n, c.Par.K, cn, l)
}

// RenderKinds draws the current packet population by kind — the invariant
// picture of Figure 2: after step t <= i·dn, packets of high classes remain
// boxed in the southwest while only low classes have escaped.
func (c *Construction) RenderKinds(net *sim.Network) string {
	n := c.Par.N
	rows := make([][]byte, n)
	for y := range rows {
		rows[y] = []byte(strings.Repeat(".", n))
	}
	st := &net.P
	for p := sim.PacketID(1); int(p) <= st.Len(); p++ {
		kind, _ := c.kindOf(st.Dst[p])
		if kind == KindNone || st.Delivered(p) {
			continue
		}
		lc := c.local(st.At[p])
		if lc.X < 0 || lc.X >= n || lc.Y < 0 || lc.Y >= n {
			continue
		}
		var g byte
		switch {
		case kind == KindN && rows[lc.Y][lc.X] == 'E',
			kind == KindE && rows[lc.Y][lc.X] == 'N':
			g = 'B' // both kinds share the node
		case kind == KindN:
			g = 'N'
		default:
			g = 'E'
		}
		rows[lc.Y][lc.X] = g
	}
	return renderRows(rows) + fmt.Sprintf("[Figure 2: packet kinds after step %d; N/E packets, B=both, .=empty]\n", net.Step())
}

// renderRows prints north-up (last row first).
func renderRows(rows [][]byte) string {
	var b strings.Builder
	for y := len(rows) - 1; y >= 0; y-- {
		b.Write(rows[y])
		b.WriteByte('\n')
	}
	return b.String()
}
