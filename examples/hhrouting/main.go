// hhrouting: the h-h extension of Section 5 — every node sends and
// receives up to h packets. The constructed instances force
// Ω(h³n²/(k+h)²) steps on destination-exchangeable routers, and the
// Theorem 15 router still digests random h-h traffic gracefully.
//
//	go run ./examples/hhrouting
package main

import (
	"fmt"
	"log"

	"meshroute"
)

func main() {
	const n, k = 90, 1

	fmt.Printf("h-h lower-bound constructions on the %d×%d mesh (k=%d):\n\n", n, n, k)
	fmt.Println("  h   bound ⌊l⌋dn   packets   undelivered@bound")
	spec, err := meshroute.LookupRouter(meshroute.RouterDimOrder)
	if err != nil {
		log.Fatal(err)
	}
	for _, h := range []int{1, 2, 4} {
		c, err := meshroute.NewHHAdversary(n, k, h)
		if err != nil {
			fmt.Printf("  %d   (%v)\n", h, err)
			continue
		}
		res, err := c.Run(spec.New())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d   %11d   %7d   %17d\n", h, res.Steps, len(res.Permutation), res.UndeliveredHard)
	}
	fmt.Println("\nThe bound grows like h³n²/(k+h)² — superlinearly in the load h.")

	// Random h-h traffic on the Theorem 15 router, injected dynamically
	// (packets beyond the queue capacity wait at their sources).
	topo := meshroute.NewMesh(48)
	hh := meshroute.RandomHH(topo, 3, 11)
	st, err := meshroute.Route(meshroute.RouterThm15, topo, 2, hh, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRandom 3-3 traffic on a 48×48 mesh via %q: %d packets in %d steps (%.2f·n), queues ≤ %d.\n",
		meshroute.RouterThm15, st.Total, st.Makespan, float64(st.Makespan)/48, st.MaxQueue)
}
