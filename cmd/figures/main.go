// Command figures regenerates the paper's figures from live simulation
// state (deliverable: "for every table AND figure, the code that
// regenerates it"):
//
//	Figure 1 — the n×n mesh with the 1-box, N_i-columns and E_i-rows
//	Figure 2 — the i-box invariant during the construction (packet kinds)
//	Figure 3 — the Lemma 12 commutation square (schematic)
//	Figure 4 — the dimension-order and farthest-first construction layouts
//	Figure 5 — the Vertical Phase strips (March / Sort-and-Smooth targets)
//	Figure 6 — Sort and Smooth, from a live run of the stream protocol
//	Figure 7 — the subphase sequence
//
// Usage: figures [-fig N] (default: all)
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"meshroute/internal/adversary"
	"meshroute/internal/clt"
	"meshroute/internal/routers"
)

func main() {
	fig := flag.Int("fig", 0, "figure number 1..7 (0 = all)")
	flag.Parse()

	show := func(n int) bool { return *fig == 0 || *fig == n }

	var c *adversary.Construction
	var res *adversary.Result
	if show(1) || show(2) {
		var err error
		c, err = adversary.NewConstruction(60, 1)
		if err != nil {
			log.Fatal(err)
		}
		dimorder, _ := routers.Lookup(routers.NameDimOrder)
		res, err = c.Run(dimorder.New())
		if err != nil {
			log.Fatal(err)
		}
	}
	if show(1) {
		fmt.Println("== Figure 1: the n×n mesh ==")
		fmt.Println(c.RenderLayout())
	}
	if show(2) {
		fmt.Println("== Figure 2: the i-box invariant at step ⌊l⌋dn ==")
		fmt.Println(c.RenderKinds(res.Net))
	}
	if show(3) {
		fmt.Println("== Figure 3: Lemma 12 commutation (S_t, S_t*, δ(S',t)) ==")
		fmt.Print(figure3())
	}
	if show(4) {
		fmt.Println("== Figure 4: dimension-order (left) and farthest-first (right) constructions ==")
		fmt.Print(figure4())
	}
	if show(5) {
		fmt.Println("== Figure 5: the Vertical Phase ==")
		fmt.Print(clt.StripDiagram(10))
		fmt.Println()
	}
	if show(6) {
		fmt.Println("== Figure 6: Sort and Smooth (d=4), from a live protocol run ==")
		out, err := clt.DemoSortSmooth(4, [][]int{
			{6, 7, 1, 1}, {2, 8, 2, 4}, {3, 1, 6, 2}, {3, 4, 2, 6},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if show(7) {
		fmt.Println("== Figure 7: subphases ==")
		fmt.Print(clt.SubphaseSequence())
	}
}

func figure3() string {
	return strings.Join([]string{
		"        delta(., 1) with X_t exchanged",
		"  S_{t-1} ----------------------------> S_t",
		"     |                                   |",
		"     | exchange <X_t..X_L>               | exchange <X_{t+1}..X_L>",
		"     v                                   v",
		" delta(S', t-1) ----------------------> delta(S', t)",
		"              delta(., 1)",
		"",
		"Exchanging destinations of same-view packets commutes with one step",
		"of any destination-exchangeable algorithm (Lemmas 10-12); the code",
		"checks the square numerically via adversary.ConfigsEqual.",
		"",
	}, "\n")
}

func figure4() string {
	var b strings.Builder
	left := [][]string{
		{"destinations:", "the cn easternmost columns, northern (1-c)n rows"},
		{"sources:", "the westernmost (1-c)n nodes of the cn southern rows"},
	}
	right := [][]string{
		{"N_i-column:", "column n+1-i (class 1 owns the east edge)"},
		{"invariant:", "within a row, higher classes sit west of lower ones"},
	}
	b.WriteString("dimension-order construction:\n")
	for _, l := range left {
		fmt.Fprintf(&b, "  %-14s %s\n", l[0], l[1])
	}
	b.WriteString("farthest-first construction:\n")
	for _, r := range right {
		fmt.Fprintf(&b, "  %-14s %s\n", r[0], r[1])
	}
	b.WriteString("(run `lowerbound -construction dimorder|ff` to execute them)\n\n")
	return b.String()
}
