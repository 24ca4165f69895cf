package viz

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/trace"
	"meshroute/internal/workload"
)

func TestGlyphScale(t *testing.T) {
	if glyph(0, 10) != ' ' {
		t.Fatal("zero must be blank")
	}
	if glyph(10, 10) != '@' {
		t.Fatalf("max must be densest, got %c", glyph(10, 10))
	}
	if glyph(5, 0) != ' ' {
		t.Fatal("zero max must be blank")
	}
	prev := -1
	for v := 1; v <= 10; v++ {
		idx := bytes.IndexByte(glyphs, glyph(v, 10))
		if idx < prev {
			t.Fatal("glyph intensity must be monotone")
		}
		prev = idx
	}
}

func TestGridRendering(t *testing.T) {
	counts := make([]int, 9)
	counts[0] = 5 // southwest corner
	out := Grid(3, 3, counts, "test")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 3 rows + caption, got %d lines", len(lines))
	}
	// Southwest corner prints in the LAST grid row, first column.
	if lines[2][0] != '@' {
		t.Fatalf("southwest corner not rendered at bottom-left:\n%s", out)
	}
	if lines[0][0] != ' ' {
		t.Fatal("empty node must be blank")
	}
	if !strings.Contains(lines[3], "test") {
		t.Fatal("caption missing")
	}
}

func TestOccupancyOfLiveNetwork(t *testing.T) {
	topo := grid.NewSquareMesh(6)
	net := sim.MustNew(routers.Thm15Config(topo, 2))
	if err := workload.Reversal(topo).Place(net); err != nil {
		t.Fatal(err)
	}
	out := Occupancy(net)
	if !strings.Contains(out, "occupancy") {
		t.Fatal("caption missing")
	}
	// All 36 nodes hold a packet: no blanks in the 6 grid rows.
	for _, line := range strings.Split(out, "\n")[:6] {
		if strings.Contains(line, " ") {
			t.Fatalf("full mesh should have no blanks:\n%s", out)
		}
	}
}

func TestLinkTrafficAndDeliveryCurve(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	net := sim.MustNew(routers.Thm15Config(topo, 2))
	if err := workload.Random(topo, 4).Place(net); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	rec.Attach(net)
	if _, err := net.Run(nil, dex.NewAdapter(policies.Thm15{}), 1000, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Done() {
		t.Fatal("packets undelivered at the step budget")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	steps, err := trace.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Analyze(steps)
	lt := LinkTraffic(topo, a)
	if !strings.Contains(lt, "link traffic") {
		t.Fatal("traffic caption missing")
	}
	checkCurve(t, a, 5)
	// 12 steps in 8 buckets round up to 6 rows of 2 steps, the last 11-12.
	a12 := &trace.Analysis{Steps: 12, Delivered: 10, DeliveredAt: map[int]int{2: 1, 5: 3, 9: 4, 12: 2}}
	if rows := checkCurve(t, a12, 8); len(rows) != 6 || !strings.HasPrefix(rows[5], "steps   11-  12 ") {
		t.Fatalf("12 steps in 8 buckets: rows %q, want 6 ending 11-12", rows)
	}
	if DeliveryCurve(&trace.Analysis{}, 5) != "(empty trace)\n" {
		t.Fatal("empty curve handling")
	}
}

// checkCurve renders a's delivery curve in the given number of buckets and
// checks that it has at most that many rows, that its last row ends on the
// last step and that its counts sum to a.Delivered. It returns the rows.
func checkCurve(t *testing.T, a *trace.Analysis, buckets int) []string {
	t.Helper()
	dc := DeliveryCurve(a, buckets)
	rows := strings.Split(strings.TrimSuffix(dc, "\n"), "\n")
	if len(rows) > buckets || !strings.Contains(rows[len(rows)-1], fmt.Sprintf("-%4d ", a.Steps)) {
		t.Fatalf("delivery curve in %d buckets does not end on step %d:\n%s", buckets, a.Steps, dc)
	}
	sum := 0
	for _, r := range rows {
		f := strings.Fields(r)
		n, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			t.Fatalf("delivery curve row %q: %v", r, err)
		}
		sum += n
	}
	if sum != a.Delivered {
		t.Fatalf("delivery curve counts sum to %d, want %d:\n%s", sum, a.Delivered, dc)
	}
	return rows
}
