package clt

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"meshroute/internal/grid"
)

// DemoSortSmooth reproduces Figure 6 of the paper from a live run of the
// Sort-and-Smooth stream protocol: a column of d strip-(i-3) nodes holding
// the given packets (each labelled by its horizontal distance to go) is
// sorted and dealt into balanced layers in strip i-2. It returns the
// before/after picture, rendered north-up with one node per line.
func DemoSortSmooth(d int, distances [][]int) (string, error) {
	if d < 1 || len(distances) != d {
		return "", fmt.Errorf("clt: need exactly d=%d node distance lists", d)
	}
	// Build a bare router on a mesh big enough for the demo: strips of
	// height d, destination strip 4 (rows 3d..4d-1), packets parked in
	// strip 1 (rows 0..d-1), column 0.
	n := 27
	for n < 27*d {
		n *= 3
	}
	r, err := New(Config{N: n})
	if err != nil {
		return "", err
	}
	packets := 0
	for _, at := range distances {
		packets += len(at)
	}
	c := r.run(NE, packets)
	for t := 1; t <= d; t++ { // node t of strip i-3 (south to north)
		for _, dist := range distances[t-1] {
			c.place(len(c.pkts), grid.XY(0, t-1), grid.XY(dist, 3*d))
		}
	}
	// One tile, one column, one destination strip: a single stream.
	stream := c.gather(newXform(n, NE, false), n, d, 0)
	before := renderColumn(stream, d, 0, "strip i-3 (before)")
	if _, err := c.ssStream(stream, 4, d, QBase); err != nil {
		return "", err
	}
	after := renderColumn(stream, d, d, "strip i-2 (after)")
	return before + after, nil
}

// renderColumn prints the stream's packets in rows [base, base+d),
// north-up, labelled by horizontal distance, each node in arrival order.
func renderColumn(stream []act, d, base int, caption string) string {
	byArrival := slices.Clone(stream)
	slices.SortStableFunc(byArrival, func(a, b act) int { return cmp.Compare(a.lastMove, b.lastMove) })
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", caption)
	for row := base + d - 1; row >= base; row-- {
		b.WriteString("  |")
		for _, a := range byArrival {
			if int(a.y) == row {
				fmt.Fprintf(&b, " %d", a.dx-a.x)
			}
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

// SubphaseSequence renders Figure 7: the order of vertical and horizontal
// subphases and the maximum span a packet can sit inactive.
func SubphaseSequence() string {
	return strings.Join([]string{
		"V1 V2 V3 H1 H2 H3 | V1 V2 V3 H1 H2 H3 | ...   (iteration j, then j+1)",
		"a packet active in some subphase is active again within at most",
		"seven subphases (Corollary 26) — the basis of the 17-packet",
		"inactive-occupancy bound of Corollary 27.",
	}, "\n") + "\n"
}

// StripDiagram renders Figure 5: one tile's 27 horizontal strips with the
// March and Sort-and-Smooth targets for a destination strip i.
func StripDiagram(i int) string {
	if i < 4 || i > 27 {
		i = 10
	}
	var b strings.Builder
	for s := 27; s >= 1; s-- {
		label := ""
		switch s {
		case i:
			label = "<- destination strip i"
		case i - 2:
			label = "<- Sort-and-Smooth parks packets here (strip i-2)"
		case i - 3:
			label = "<- March packs packets here (strip i-3), <= q per node"
		}
		marker := "  "
		if s <= i-3 {
			marker = "^^" // active packets march north through here
		}
		fmt.Fprintf(&b, "strip %2d %s %s\n", s, marker, label)
	}
	b.WriteString("(active = destination in strip i, start in strips 1..i-3)\n")
	return b.String()
}
