// Package meshroute is a complete Go implementation of the routing theory
// in Chinn, Leighton & Tompa, "Minimal Adaptive Routing on the Mesh with
// Bounded Queue Size" (SPAA 1994): the synchronous multi-port mesh/torus
// packet-routing model with bounded queues, the family of
// destination-exchangeable routing algorithms, the adversarial lower-bound
// constructions of Sections 3–5 (Ω(n²/k²) for minimal adaptive routing,
// Ω(n²/k) for dimension order), the matching O(n²/k + n) bounded-queue
// dimension-order router of Theorem 15, and the O(n)-time O(1)-queue
// minimal adaptive algorithm of Section 6 (Theorem 34).
//
// Quick start:
//
//	topo := meshroute.NewMesh(32)
//	perm := meshroute.RandomPermutation(topo, 42)
//	stats, err := meshroute.Route(meshroute.RouterThm15, topo, 2, perm, 0)
//
// To build the adversarial permutation of Theorem 14 against a router and
// measure how badly it hurts:
//
//	perm, bound, time, done, err := meshroute.HardPermutation(240, 2, meshroute.RouterDimOrder, 100000)
//
// And to route with the Section 6 O(n) algorithm:
//
//	res, err := meshroute.RouteCLT(81, perm, meshroute.CLTOptions{})
package meshroute

import (
	"context"
	"errors"
	"fmt"

	"meshroute/internal/adversary"
	"meshroute/internal/clt"
	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Core model types, re-exported from the internal packages.
type (
	// Topology is a mesh or torus network.
	Topology = grid.Topology
	// Coord is a mesh coordinate (X = column from west, Y = row from
	// south).
	Coord = grid.Coord
	// Dir is a mesh direction.
	Dir = grid.Dir
	// NodeID identifies a node.
	NodeID = grid.NodeID
	// Network is a simulated network with packets in flight.
	Network = sim.Network
	// NetworkConfig configures a Network.
	NetworkConfig = sim.Config
	// Packet is a routed packet.
	Packet = sim.Packet
	// Algorithm is a routing algorithm driven by the engine.
	Algorithm = sim.Algorithm
	// Permutation is a partial permutation routing instance.
	Permutation = workload.Permutation
	// Pair is one source/destination pair.
	Pair = workload.Pair
	// HHInstance is an h-h routing instance.
	HHInstance = workload.HH
	// AdversaryResult is the outcome of a lower-bound construction.
	AdversaryResult = adversary.Result
	// CLTResult reports a Section 6 algorithm run.
	CLTResult = clt.Result

	// FaultSchedule is a deterministic schedule of injected faults.
	FaultSchedule = fault.Schedule
	// FaultConfig parameterizes random fault-schedule generation.
	FaultConfig = fault.Config
	// FaultEvent is one scheduled fault transition.
	FaultEvent = fault.Event
	// RunDiagnostics is the structured state snapshot attached to
	// livelock and cancellation errors.
	RunDiagnostics = sim.Diagnostics
	// LivelockError reports a watchdog abort after a no-progress window.
	LivelockError = sim.LivelockError
	// UnreachableError reports a destination cut off by permanent link
	// failures under minimal routing.
	UnreachableError = sim.UnreachableError
)

// GenerateFaults draws a random fault schedule for a topology; the same
// seed always yields the same schedule.
func GenerateFaults(topo Topology, cfg FaultConfig) (*FaultSchedule, error) {
	return fault.Generate(topo, cfg)
}

// Directions.
const (
	North = grid.North
	East  = grid.East
	South = grid.South
	West  = grid.West
)

// XY builds a Coord.
func XY(x, y int) Coord { return grid.XY(x, y) }

// NewMesh returns the n×n mesh of the paper.
func NewMesh(n int) Topology { return grid.NewSquareMesh(n) }

// NewTorus returns the n×n torus.
func NewTorus(n int) Topology { return grid.NewSquareTorus(n) }

// NewNetwork builds a network, validating the configuration; see
// NetworkConfig for the queue models.
func NewNetwork(cfg NetworkConfig) (*Network, error) { return sim.New(cfg) }

// Workload generators.
var (
	// RandomPermutation is a uniformly random full permutation.
	RandomPermutation = workload.Random
	// RandomDestinations sends one packet per node to an independent
	// uniform destination (the average-case setting of Section 1.1).
	RandomDestinations = workload.RandomDestinations
	// Transpose is the matrix-transpose permutation.
	Transpose = workload.Transpose
	// Reversal is the full-reversal permutation.
	Reversal = workload.Reversal
	// BitReversal is the bit-reversal permutation (power-of-two meshes).
	BitReversal = workload.BitReversal
	// RandomHH builds a random h-h instance from h permutations.
	RandomHH = workload.RandomHH
)

// Rotation is the torus-shift permutation (x,y) -> (x+dx, y+dy) mod n.
func Rotation(topo Topology, dx, dy int) *Permutation { return workload.Rotation(topo, dx, dy) }

// RouteStats summarizes one routing run; see scenario.RouteStats for its
// fields and wire form.
type RouteStats = scenario.RouteStats

// RouteOptions extends Route with robustness controls.
type RouteOptions struct {
	// MaxSteps caps the run (0 or less means a generous default).
	MaxSteps int
	// Faults injects the schedule into the run (nil disables faults).
	Faults *FaultSchedule
	// FaultAware selects the router's fault-aware variant, which detours
	// around failed links; only some routers have one (LookupRouter's
	// spec reports it via NewFaultAware != nil).
	FaultAware bool
	// Watchdog aborts the run with a LivelockError after this many steps
	// without a delivery (0 disables the watchdog).
	Watchdog int
	// Seed seeds a randomized router's decision stream (rand-zigzag).
	// Selecting a nonzero seed for a deterministic router is an error;
	// 0 keeps the router's default stream.
	Seed uint64
}

// Route runs a named router on a permutation over the given topology with
// queue capacity k, until done or maxSteps (0 means a generous default).
func Route(router string, topo Topology, k int, perm *Permutation, maxSteps int) (RouteStats, error) {
	return RouteWithOptions(router, topo, k, perm, RouteOptions{MaxSteps: maxSteps})
}

// RouteWithOptions is Route with fault injection, fault-aware routing and
// a livelock watchdog available. The call is a scenario.Spec with a pairs
// workload, validated, built and run as every spec is.
func RouteWithOptions(router string, topo Topology, k int, perm *Permutation, opts RouteOptions) (RouteStats, error) {
	if topo.Width() != topo.Height() {
		return RouteStats{}, fmt.Errorf("meshroute: %d×%d topology, need a square one", topo.Width(), topo.Height())
	}
	spec := &scenario.Spec{
		N: topo.Width(), K: k, Router: router,
		FaultAware: opts.FaultAware, Seed: opts.Seed, Watchdog: opts.Watchdog,
		MaxSteps: max(opts.MaxSteps, 0),
		Workload: scenario.Workload{Kind: scenario.KindPairs, Pairs: perm.Pairs},
	}
	if topo.Wraparound() {
		spec.Topology = scenario.TopoTorus
	}
	if err := spec.Validate(); err != nil {
		// A spec refuses an empty pairs list; the empty permutation is
		// routed, trivially, in zero steps.
		var verr *scenario.ValidationError
		if len(perm.Pairs) == 0 && errors.As(err, &verr) && verr.Field == "workload.pairs" {
			return RouteStats{Done: true}, nil
		}
		return RouteStats{}, err
	}
	run, err := spec.BuildWithFaults(opts.Faults)
	if err != nil {
		return RouteStats{}, err
	}
	res, err := new(scenario.Runner).RunBuilt(context.TODO(), run)
	if err != nil {
		return RouteStats{}, err
	}
	if res.Err != nil {
		return RouteStats{}, res.Err
	}
	return res.Stats, nil
}

// HardPermutation builds the Theorem 14 adversarial permutation against a
// named destination-exchangeable router on the n×n mesh with queue size k,
// verifies the Lemma 12 replay equivalence, and measures the delivery time
// of the constructed permutation (capped at maxSteps).
func HardPermutation(n, k int, router string, maxSteps int) (perm []Pair, bound, makespan int, done bool, err error) {
	spec, err := LookupRouter(router)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if !spec.DestinationExchangeable {
		return nil, 0, 0, false, fmt.Errorf("meshroute: router %q is not destination-exchangeable; Theorem 14 does not apply", router)
	}
	if spec.Queues != sim.CentralQueue {
		return nil, 0, 0, false, fmt.Errorf("meshroute: HardPermutation supports central-queue routers; use the adversary package directly for %q", router)
	}
	c, err := adversary.NewConstruction(n, k)
	if err != nil {
		return nil, 0, 0, false, err
	}
	out, err := c.Pipeline(nil, spec.New, maxSteps)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return out.Permutation, out.Steps, out.Makespan, out.Done, nil
}

// CLTOptions configures the Section 6 algorithm.
type CLTOptions struct {
	// ImprovedQ uses the 564n constant (q = 102 for iterations >= 1).
	ImprovedQ bool
	// Verify enables expensive invariant checks.
	Verify bool
}

// RouteCLT routes a permutation on the n×n mesh (n = 27·3^j, or
// n < 27) with the Section 6 O(n)-time, O(1)-queue minimal adaptive
// algorithm, returning the Theorem 34 statistics.
func RouteCLT(n int, perm *Permutation, opts CLTOptions) (*CLTResult, error) {
	r, err := clt.New(clt.Config{N: n, ImprovedQ: opts.ImprovedQ, Verify: opts.Verify})
	if err != nil {
		return nil, err
	}
	return r.Route(perm)
}

// NewDexAdapter lifts a dex.Policy into an Algorithm. It is exposed so
// custom destination-exchangeable policies written against the dex
// framework can run on the public engine.
func NewDexAdapter(p dex.Policy) Algorithm { return dex.NewAdapter(p) }

// Adversary constructions, re-exported for direct use.
var (
	// NewAdversary prepares the Section 3 Ω(n²/k²) construction.
	NewAdversary = adversary.NewConstruction
	// NewHHAdversary prepares the Section 5 h-h construction.
	NewHHAdversary = adversary.NewHHConstruction
	// NewDimOrderAdversary prepares the Section 5 Ω(n²/k) dimension-
	// order construction.
	NewDimOrderAdversary = adversary.NewDOConstruction
	// NewFarthestFirstAdversary prepares the Section 5 farthest-first
	// construction.
	NewFarthestFirstAdversary = adversary.NewFFConstruction
	// AdversaryMinN is the paper's n >= 24(k+2)² recommendation.
	AdversaryMinN = adversary.MinN
)
