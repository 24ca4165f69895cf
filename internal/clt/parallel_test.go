package clt

import (
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/workload"
)

// outcome is everything a route leaves behind: the Result (or error), the
// span stream, and every packet's final position and hop count.
type outcome struct {
	res   *Result
	err   string
	spans []obs.Span
	pkts  []pkt
}

// atProcs runs route, which reports through the sink it is handed, with
// GOMAXPROCS set to procs.
func atProcs(procs int, route func(sink obs.Sink) (*Router, *Result, error)) outcome {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sink := &obs.Records{}
	r, res, err := route(sink)
	out := outcome{res: res, spans: sink.Spans, pkts: r.packets()}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// The four class runs are one code path at every GOMAXPROCS: one worker
// walks them in class order, two or four run them side by side, and the
// Result, the span stream and every packet's final state are the same.
func TestRouteIndependentOfGOMAXPROCS(t *testing.T) {
	sizes := []int{26, 27, 81}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		topo := grid.NewSquareMesh(n)
		last := grid.NodeID(n*n - 1)
		perms := map[string]*workload.Permutation{
			"random-1":  workload.Random(topo, 1),
			"random-2":  workload.Random(topo, 2),
			"random-3":  workload.Random(topo, 3),
			"transpose": workload.Transpose(topo),
			"reversal":  workload.Reversal(topo),
			"partial": {Pairs: []workload.Pair{
				{Src: 0, Dst: last}, {Src: last, Dst: 0}, {Src: 5, Dst: 5},
				{Src: grid.NodeID(n - 1), Dst: last - grid.NodeID(n-1)}, {Src: 7, Dst: 7},
			}},
			"single": {Pairs: []workload.Pair{{Src: 3, Dst: last - 4}}},
		}
		for name, perm := range perms {
			for _, improved := range []bool{false, true} {
				route := func(sink obs.Sink) (*Router, *Result, error) {
					r, err := New(Config{N: n, ImprovedQ: improved, Sink: sink})
					if err != nil {
						t.Fatal(err)
					}
					res, err := r.Route(perm)
					return r, res, err
				}
				want := atProcs(1, route)
				if want.err != "" {
					t.Fatalf("n=%d %s improved=%v: %s", n, name, improved, want.err)
				}
				for _, procs := range []int{2, 4} {
					if got := atProcs(procs, route); !reflect.DeepEqual(got, want) {
						t.Errorf("n=%d %s improved=%v: GOMAXPROCS=%d differs from 1:\n got %+v\nwant %+v",
							n, name, improved, procs, got.res, want.res)
					}
				}
			}
		}
	}
}

// A failed class ends the merge where routing the classes one after
// another would have stopped: the error is the lowest failing class's and
// the sink has seen the earlier classes' spans and that class's spans up
// to the failure, at every GOMAXPROCS. The runs are placed by hand — three
// packets on one node, all at their destination column, break Lemma 16 in
// Balancing — NW's in its Horizontal Phase, SE's in its first phase.
func TestFailingClassEndsTheMerge(t *testing.T) {
	const n = 27
	route := func(sink obs.Sink) (*Router, *Result, error) {
		r, err := New(Config{N: n, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		// pile places three packets of class at from, bound for to
		// (algorithm space: every class travels north-east there).
		pile := func(class Class, from, to grid.Coord) {
			c, xf := r.run(class, 3), newXform(n, class, false)
			for id := 0; id < 3; id++ {
				c.place(id, xf.from(from), xf.from(to))
			}
		}
		r.run(NE, 1).place(0, grid.XY(1, 1), grid.XY(20, 20))
		pile(NW, grid.XY(2, 5), grid.XY(12, 5)) // inactive in the Vertical Phase
		pile(SE, grid.XY(7, 2), grid.XY(7, 12))
		r.run(SW, 0)
		res, err := r.forkJoin(func(class Class) error { return r.runs[class].route() })
		return r, res, err
	}
	want := atProcs(1, route)
	if !strings.Contains(want.err, "Lemma 16 violated: node x=5") {
		t.Fatalf("error %q, want NW's Lemma 16 violation in column 5", want.err)
	}
	// NE's full pass (two phases of three spans and the base case), then
	// NW's Vertical Phase.
	if len(want.spans) != 7+3 {
		t.Fatalf("the sink saw %d spans, want 10", len(want.spans))
	}
	clock := 0
	for i, sp := range want.spans {
		if class := []string{"NE", "NW"}[i/7]; sp.Class != class || sp.Start != clock {
			t.Fatalf("span %d is %s's at %d, want %s's at %d", i, sp.Class, sp.Start, class, clock)
		}
		clock += sp.Formula
	}
	for _, procs := range []int{2, 4} {
		if got := atProcs(procs, route); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: error %q after %d spans, one worker has %q after %d",
				procs, got.err, len(got.spans), want.err, len(want.spans))
		}
	}
}

// schedule is Theorem 34's synchronized schedule in closed form for
// n = 27·3^J, with March capacity q0 in iteration 0 and q1 after it. A
// phase lasts (qd-1) + 2(d-1+qd) + (3m-4) = (3q+83)d - 7 steps (Lemmas
// 29-31, m = 27d); a class pass runs two of them on strips of height 3^J,
// then six on each height 3^(J-1) … 1, then the 14-step base case.
func schedule(J, q0, q1 int) int {
	pow := 1
	for j := 0; j < J; j++ {
		pow *= 3
	}
	return 4 * (2*(3*q0+83)*pow + 3*(3*q1+83)*(pow-1) - 7*(2+6*J) + 14)
}

// The schedule does not depend on the permutation, so Theorem 34's bound is
// a closed form: with q = 408 throughout it is 4·[(1307/27)(5n-81) -
// 7(2+6J) + 14], which tends to (20·1307/27)·n ≈ 968.1n from below, under
// 972n at every size.
func TestScheduleClosedForm(t *testing.T) {
	pinned := []int{10456, 62568, 219240, 689592} // bench/expected.json, EXPERIMENTS.md E5
	for J, n := 0, 27; n <= 729; J, n = J+1, 3*n {
		if got, want := schedule(J, QBase, QBase), 4*(1307*(5*n-81)/27-7*(2+6*J)+14); got != want || got != pinned[J] {
			t.Errorf("n=%d: the closed form gives %d and %d, pinned %d", n, got, want, pinned[J])
		}
		if n == 729 && testing.Short() {
			continue
		}
		perm := &workload.Permutation{Pairs: []workload.Pair{{Src: 0, Dst: grid.NodeID(n*n - 1)}}}
		for _, improved := range []bool{false, true} {
			q1 := QBase
			if improved {
				q1 = QImproved
			}
			_, res := routePerm(t, n, perm, Config{ImprovedQ: improved})
			err := withinBounds(n, improved, res)
			if want := schedule(J, QBase, q1); res.TimeFormula != want || err != nil {
				t.Errorf("n=%d improved=%v: schedule %d, closed form %d: %v", n, improved, res.TimeFormula, want, err)
			}
		}
	}
}

// Theorem 34 at n = 729, the first size whose peak queue comes near
// q = 408 (the bounds are asymptotic in n). A route takes seconds and the
// six take about a minute, so it is opt-in:
//
//	MESHROUTE_BIGMESH=1 go test ./internal/clt -run Theorem34At729
func TestTheorem34At729(t *testing.T) {
	if os.Getenv("MESHROUTE_BIGMESH") == "" {
		t.Skip("set MESHROUTE_BIGMESH=1 to route n=729")
	}
	assertTheorem34(t, 729)
}
