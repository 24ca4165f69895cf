package clt

import (
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/workload"
)

// TestPhaseSpans checks the observability contract of the Section 6
// router: one span per March / Sort-and-Smooth / Balancing phase and per
// base case, each respecting its lemma's closed form, with the phase
// clock reconstructing the synchronized schedule exactly.
func TestPhaseSpans(t *testing.T) {
	const n = 81
	sink := &obs.Records{}
	r, err := New(Config{N: n, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Route(workload.Random(grid.NewSquareMesh(n), 7))
	if err != nil {
		t.Fatal(err)
	}

	// n = 81: per class, iteration 0 runs 1 tiling × 2 axes × 3 phases,
	// iteration 1 runs 3 tilings × 2 axes × 3 phases, plus one base
	// case — 25 spans; 4 classes.
	if want := 4 * 25; len(sink.Spans) != want {
		t.Fatalf("got %d spans, want %d", len(sink.Spans), want)
	}

	clock, kinds := 0, map[string]int{}
	for i, sp := range sink.Spans {
		kinds[sp.Name]++
		if sp.Start != clock {
			t.Fatalf("span %d (%s) starts at %d, phase clock says %d", i, sp.Name, sp.Start, clock)
		}
		if sp.Measured > sp.Formula {
			t.Errorf("span %d (%s %s iter=%d tau=%d) measured %d exceeds formula %d",
				i, sp.Name, sp.Class, sp.Iteration, sp.Tiling, sp.Measured, sp.Formula)
		}
		if sp.Name == "basecase" && sp.Formula != 14 {
			t.Errorf("base case after iterations must have formula 14 (Lemma 32), got %d", sp.Formula)
		}
		clock += sp.Formula
	}
	if clock != res.TimeFormula {
		t.Errorf("sum of span formulas = %d, Result.TimeFormula = %d", clock, res.TimeFormula)
	}
	// Per class: 2 axes × (1 + 3) tilings of each phase kind.
	for _, k := range []string{"march", "sortsmooth", "balance"} {
		if kinds[k] != 4*2*4 {
			t.Errorf("%s spans = %d, want %d", k, kinds[k], 4*2*4)
		}
	}
	if kinds["basecase"] != 4 {
		t.Errorf("basecase spans = %d, want 4", kinds["basecase"])
	}
}
