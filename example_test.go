package meshroute_test

import (
	"fmt"

	"meshroute"
	"meshroute/internal/bounds"
)

// Route a structured permutation with the Theorem 15 bounded-queue router.
func ExampleRoute() {
	topo := meshroute.NewMesh(16)
	perm := meshroute.Transpose(topo)
	stats, err := meshroute.Route(meshroute.RouterThm15, topo, 1, perm, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("done=%v delivered=%d maxQueue=%d\n", stats.Done, stats.Delivered, stats.MaxQueue)
	// Output:
	// done=true delivered=256 maxQueue=1
}

// Build the Theorem 14 adversarial permutation against the dimension-order
// router and report the forced lower bound.
func ExampleHardPermutation() {
	perm, bound, _, _, err := meshroute.HardPermutation(120, 1, meshroute.RouterDimOrder, 2000)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("packets=%d bound=%d\n", len(perm), bound)
	// Output:
	// packets=376 bound=96
}

// Route with the Section 6 O(n)-time, O(1)-queue minimal adaptive
// algorithm and check Theorem 34's bounds.
func ExampleRouteCLT() {
	n := 27
	perm := meshroute.Reversal(meshroute.NewMesh(n))
	res, err := meshroute.RouteCLT(n, perm, meshroute.CLTOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	in := bounds.Instance{Topo: meshroute.NewMesh(n)}
	_, steps, _ := bounds.Theorem34.Bound(in)
	_, queue, _ := bounds.Lemma28.Bound(in)
	fmt.Printf("schedule within %d: %v, queue within %d: %v\n", steps, res.TimeFormula <= steps, queue, res.MaxQueue <= queue)
	// Output:
	// schedule within 26244: true, queue within 834: true
}

// List the built-in routers.
func ExampleRouterNames() {
	for _, name := range meshroute.RouterNames() {
		spec, _ := meshroute.LookupRouter(name)
		fmt.Printf("%s minimal=%v dex=%v\n", name, spec.Minimal(), spec.DestinationExchangeable())
	}
	// Output:
	// dimorder minimal=true dex=true
	// farthest-first minimal=true dex=false
	// hot-potato minimal=false dex=true
	// rand-zigzag minimal=true dex=false
	// scheduled minimal=true dex=false
	// stray-dimorder minimal=false dex=true
	// thm15 minimal=true dex=true
	// zigzag minimal=true dex=true
}
