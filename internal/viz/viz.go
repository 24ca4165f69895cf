// Package viz renders small ASCII visualizations of a routing run: node
// occupancy heatmaps (which make the corner congestion of the constructed
// permutations directly visible) and link-utilization maps from traces.
// North is up, matching the paper's figures: row 0 (south) prints last.
package viz

import (
	"fmt"
	"strings"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
	"meshroute/internal/trace"
)

// heat maps an intensity 0..1 to a glyph.
var glyphs = []byte(" .:-=+*#%@")

func glyph(v, max int) byte {
	if max == 0 || v == 0 {
		return glyphs[0]
	}
	idx := 1 + (len(glyphs)-2)*v/max
	if idx >= len(glyphs) {
		idx = len(glyphs) - 1
	}
	return glyphs[idx]
}

// Occupancy renders the current per-node packet counts of a network as a
// heatmap, one character per node.
func Occupancy(net *sim.Network) string {
	w, h := net.Topo.Width(), net.Topo.Height()
	counts := make([]int, w*h)
	max := 0
	for _, id := range net.Occupied() {
		c := net.Node(id).Len()
		counts[id] = c
		if c > max {
			max = c
		}
	}
	return Grid(w, h, counts, fmt.Sprintf("occupancy (max %d)", max))
}

// Grid renders arbitrary per-node counts (indexed by node id, row-major
// from the south) as a heatmap with a caption.
func Grid(w, h int, counts []int, caption string) string {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for y := h - 1; y >= 0; y-- {
		for x := 0; x < w; x++ {
			b.WriteByte(glyph(counts[y*w+x], max))
		}
		b.WriteByte('\n')
	}
	if caption != "" {
		fmt.Fprintf(&b, "[%s]\n", caption)
	}
	return b.String()
}

// LinkTraffic renders a trace analysis as a per-node heatmap of outgoing
// transmissions.
func LinkTraffic(topo grid.Topology, a *trace.Analysis) string {
	w, h := topo.Width(), topo.Height()
	counts := make([]int, w*h)
	for id, n := range a.NodeTraffic {
		counts[id] = n
	}
	return Grid(w, h, counts, fmt.Sprintf("link traffic, %d moves over %d steps", a.TotalMoves, a.Steps))
}

// DeliveryCurve renders deliveries per step as a tiny bar chart: one row
// per ⌈steps/buckets⌉ steps, so at most buckets rows and none starting
// past the last step.
func DeliveryCurve(a *trace.Analysis, buckets int) string {
	if a.Steps == 0 || buckets < 1 {
		return "(empty trace)\n"
	}
	per := (a.Steps + buckets - 1) / buckets
	counts := make([]int, (a.Steps+per-1)/per)
	max := 0
	for step, c := range a.DeliveredAt {
		i := (step - 1) / per
		counts[i] += c
		if counts[i] > max {
			max = counts[i]
		}
	}
	var b strings.Builder
	for i, c := range counts {
		bar := 0
		if max > 0 {
			bar = 40 * c / max
		}
		fmt.Fprintf(&b, "steps %4d-%4d %s %d\n", i*per+1, min((i+1)*per, a.Steps), strings.Repeat("█", bar), c)
	}
	return b.String()
}
