package meshroute

import (
	"fmt"

	"meshroute/internal/routers"
)

// Router names accepted by Route, HardPermutation and LookupRouter.
const (
	// RouterDimOrder is dimension-order routing with FIFO outqueue and
	// round-robin inqueue over a central queue — the paper's canonical
	// destination-exchangeable example (Section 2). Use k >= 2.
	RouterDimOrder = routers.NameDimOrder
	// RouterZigZag is the minimal adaptive alternation router of
	// Section 2: move in one profitable direction until blocked, then
	// the other. Destination-exchangeable. Use k >= 2.
	RouterZigZag = routers.NameZigZag
	// RouterThm15 is the Theorem 15 bounded-queue dimension-order
	// router: four incoming queues of size k, straight priority,
	// O(n²/k + n) worst case. Works for every k >= 1.
	RouterThm15 = routers.NameThm15
	// RouterFarthestFirst is dimension-order routing with the
	// farthest-first outqueue policy — not destination-exchangeable.
	RouterFarthestFirst = routers.NameFarthestFirst
	// RouterHotPotato is the deflection baseline — nonminimal,
	// destination-exchangeable (ignores k; capacity is the node degree).
	RouterHotPotato = routers.NameHotPotato
	// RouterRandZigZag is the randomized minimal adaptive router — the
	// Section 7 "incorporate randomness" escape hatch. Deterministic
	// given its seed (0 by default; set RouteOptions.Seed or a scenario
	// Spec's seed for other streams), but outside the Theorem 14 model.
	RouterRandZigZag = routers.NameRandZigZag
	// RouterScheduled is the offline path-scheduled O(C+D) baseline:
	// precomputes the internal/analysis minimal path system, delays each
	// packet by a seeded random amount in [0, C), then replays the
	// schedule deterministically. Offline — static workloads only.
	RouterScheduled = routers.NameScheduled
	// RouterStray is the Section 5 "Nonminimal extensions" router:
	// dimension order that may overshoot its turning column by up to
	// δ = 1 columns when blocked (destination-exchangeable, bounded
	// stray). Use routers.StrayDimOrder directly for other δ.
	RouterStray = routers.NameStrayDimOrder
)

// RouterSpec describes one of the built-in routing algorithms; see
// routers.Spec for its fields.
type RouterSpec = routers.Spec

// LookupRouter returns the spec for a router name.
func LookupRouter(name string) (RouterSpec, error) {
	spec, ok := routers.Lookup(name)
	if !ok {
		return RouterSpec{}, fmt.Errorf("meshroute: unknown router %q (have %v)", name, RouterNames())
	}
	return spec, nil
}

// RouterNames lists the registered router names, sorted.
func RouterNames() []string { return routers.Names() }
