// onalg: route hard permutations with the Section 6 O(n)-time,
// O(1)-queue minimal adaptive algorithm (Theorem 34) and check the paper's
// bounds: at most 972n steps (564n with the improved constant) and at most
// 834 packets in any node — on every permutation, including the
// adversarial one that cripples destination-exchangeable routers.
//
//	go run ./examples/onalg
package main

import (
	"fmt"
	"log"

	"meshroute"
	"meshroute/internal/bounds"
)

func main() {
	const n = 81 // a power of 3, as the algorithm's tilings require

	topo := meshroute.NewMesh(n)
	workloads := map[string]*meshroute.Permutation{
		"random":    meshroute.RandomPermutation(topo, 7),
		"transpose": meshroute.Transpose(topo),
		"reversal":  meshroute.Reversal(topo),
	}

	_, steps, _ := bounds.Theorem34.Bound(bounds.Instance{Topo: topo})
	fmt.Printf("Section 6 algorithm on the %d×%d mesh (bounds: %dn = %d steps, queue ≤ %d):\n\n", n, n, steps/n, steps, bounds.CLTQueue)
	for _, name := range []string{"random", "transpose", "reversal"} {
		res, err := meshroute.RouteCLT(n, workloads[name], meshroute.CLTOptions{Verify: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s schedule %6d steps (%5.1f·n)   work %5d   peak queue %3d\n",
			name, res.TimeFormula, float64(res.TimeFormula)/float64(n), res.TimeMeasured, res.MaxQueue)
	}

	// The improved constant (q = 102 for refined tiles) gives 564n.
	res, err := meshroute.RouteCLT(n, meshroute.RandomPermutation(topo, 7), meshroute.CLTOptions{ImprovedQ: true})
	if err != nil {
		log.Fatal(err)
	}
	_, steps, _ = bounds.Theorem34.Bound(bounds.Instance{Topo: topo, ImprovedQ: true})
	fmt.Printf("\nwith ImprovedQ: schedule %d steps (%.1f·n; bound %dn = %d)\n",
		res.TimeFormula, float64(res.TimeFormula)/float64(n), steps/n, steps)

	fmt.Println("\nEvery move is minimal (the router panics otherwise), yet the time is O(n)")
	fmt.Println("with O(1) queues — possible only because the algorithm reads full distances,")
	fmt.Println("the escape hatch Theorem 14 cannot close.")
}
