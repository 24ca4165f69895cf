// visualize: watch where a hard permutation hurts. Routes the reversal
// permutation (everything crosses the center) and a corner flood (the
// shape of the Theorem 14 construction) with the Theorem 15 router, and
// renders occupancy and link-traffic heatmaps plus the delivery curve.
//
//	go run ./examples/visualize
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"meshroute"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/trace"
	"meshroute/internal/viz"
)

func main() {
	const n, k = 24, 1
	topo := meshroute.NewMesh(n)

	run("reversal (all traffic crosses the center)", topo, k, meshroute.Reversal(topo))

	// Corner flood: the 6×6 southwest corner sends to the far side —
	// the congestion pattern the Theorem 14 construction weaponizes.
	corner := &meshroute.Permutation{}
	idx := 0
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			corner.Pairs = append(corner.Pairs, meshroute.Pair{
				Src: topo.ID(meshroute.XY(x, y)),
				Dst: topo.ID(meshroute.XY(n-1-idx%6, n-1-idx/6)),
			})
			idx++
		}
	}
	run("corner flood (the Theorem 14 shape)", topo, k, corner)
}

func run(title string, topo meshroute.Topology, k int, perm *meshroute.Permutation) {
	n := topo.Width()
	thm15, _ := routers.Lookup(routers.NameThm15)
	net := sim.MustNew(thm15.Config(topo, k))
	if err := perm.Place(net); err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	rec.Attach(net)
	alg := thm15.New()

	fmt.Printf("=== %s ===\n", title)
	snapshot := func(net *sim.Network, step int) {
		if step == n/2 {
			fmt.Printf("\noccupancy after %d steps:\n%s", step, viz.Occupancy(net))
		}
	}
	if _, err := net.Run(nil, alg, math.MaxInt, snapshot); err != nil {
		log.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		log.Fatal(err)
	}
	steps, err := trace.Read(&buf)
	if err != nil {
		log.Fatal(err)
	}
	a := trace.Analyze(steps)
	fmt.Printf("\n%s", viz.LinkTraffic(topo, a))
	fmt.Printf("\ndeliveries over time:\n%s", viz.DeliveryCurve(a, 6))
	link, hot := a.HottestLink()
	fmt.Printf("hottest link: %v heading %v carried %d packets; makespan %d steps\n\n",
		topo.CoordOf(link.From), link.Dir, hot, a.Steps)
}
