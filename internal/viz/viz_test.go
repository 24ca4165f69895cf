package viz

import (
	"bytes"
	"strings"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
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
	if _, err := net.Run(nil, dex.NewAdapter(routers.Thm15{}), 1000, nil); err != nil {
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
	dc := DeliveryCurve(a, 5)
	if !strings.Contains(dc, "steps") {
		t.Fatalf("delivery curve malformed:\n%s", dc)
	}
	if DeliveryCurve(&trace.Analysis{}, 5) != "(empty trace)\n" {
		t.Fatal("empty curve handling")
	}
}
