// Package routers is the registry of the built-in routing algorithms
// (Lookup, Names) and the network configuration each one needs. The
// destination-exchangeable routers are dex.Policy values of package
// policies; the three that are not implement sim.Algorithm here:
//
//   - DimOrderFF: dimension order with the farthest-first outqueue policy,
//     which reads destination distances (Section 5 lower-bounds it anyway).
//   - RandZigZag: ZigZag with seeded random preferences (Section 7).
//   - Scheduled: the offline path-scheduled O(C+D) baseline.
package routers

import (
	"sort"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
)

// Registry names of the built-in routers (the root package re-exports them
// as meshroute.Router*, with their descriptions).
const (
	NameDimOrder      = "dimorder"
	NameZigZag        = "zigzag"
	NameThm15         = "thm15"
	NameFarthestFirst = "farthest-first"
	NameHotPotato     = "hot-potato"
	NameRandZigZag    = "rand-zigzag"
	NameScheduled     = "scheduled"
	NameStrayDimOrder = "stray-dimorder"
)

// Spec describes one of the built-in routing algorithms. What the router
// is — destination-exchangeable, minimal, its queue model — is not declared
// here but read off New and Config by the methods of the same names.
type Spec struct {
	// Name is the registry key.
	Name string
	// Summary is a one-line description.
	Summary string
	// Offline reports that the router must see the whole instance before
	// step 1 (it precomputes a global schedule), so it supports static
	// workloads only; the scenario layer rejects dynamic workloads for it.
	Offline bool
	// New creates a fresh instance for one run.
	New func() sim.Algorithm
	// NewFaultAware creates the router's fault-aware variant (detours
	// around failed links), or is nil if the router has none.
	NewFaultAware func() sim.Algorithm
	// NewSeeded creates the router with an explicit randomness seed (and,
	// when faultAware is set, its fault-aware variant). It is nil for
	// deterministic routers, which have no seed to set; New is equivalent
	// to NewSeeded(0, false) where both exist.
	NewSeeded func(seed uint64, faultAware bool) sim.Algorithm
	// Config builds the network configuration for a topology and k. It
	// only stores the topology it is given, so Config(nil, k) describes
	// the router on every topology.
	Config func(topo grid.Topology, k int) sim.Config
}

// DestinationExchangeable reports whether the router fits the Section 2
// restricted model (and therefore Theorem 14): whether New builds it on the
// dex adapter, through which a policy never sees a destination.
func (s Spec) DestinationExchangeable() bool {
	_, ok := s.New().(*dex.Adapter)
	return ok
}

// Minimal reports whether the router uses only shortest paths: whether its
// configuration has the engine refuse every nonminimal move.
func (s Spec) Minimal() bool { return s.Config(nil, 1).RequireMinimal }

// Queues returns the queue model the router's configuration builds.
func (s Spec) Queues() sim.QueueModel { return s.Config(nil, 1).Queues }

// minimalCentral is the configuration of a minimal central-queue router.
func minimalCentral(topo grid.Topology, k int) sim.Config {
	return sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
}

// Thm15Config returns the network configuration the Theorem 15 router
// requires: four incoming queues of capacity k per node.
func Thm15Config(topo grid.Topology, k int) sim.Config {
	return sim.Config{
		Topo:            topo,
		K:               k,
		Queues:          sim.PerInlinkQueues,
		RequireMinimal:  true,
		CheckInvariants: true,
	}
}

// HotPotatoConfig returns a network configuration suitable for the
// deflection router: central queue with room for one packet per inlink and
// no minimality requirement.
func HotPotatoConfig(topo grid.Topology) sim.Config {
	return sim.Config{Topo: topo, K: grid.NumDirs, Queues: sim.CentralQueue, CheckInvariants: true}
}

var registry = map[string]Spec{
	NameDimOrder: {
		Name:    NameDimOrder,
		Summary: "dimension order, FIFO outqueue, round-robin inqueue, central queue",
		New:     func() sim.Algorithm { return dex.NewAdapter(policies.DimOrderFIFO{}) },
		Config:  minimalCentral,
	},
	NameZigZag: {
		Name:          NameZigZag,
		Summary:       "minimal adaptive alternation (Section 2 example), central queue",
		New:           func() sim.Algorithm { return dex.NewAdapter(policies.ZigZag{}) },
		NewFaultAware: func() sim.Algorithm { return dex.NewAdapter(policies.ZigZag{FaultAware: true}) },
		Config:        minimalCentral,
	},
	NameThm15: {
		Name:    NameThm15,
		Summary: "Theorem 15: four inlink queues of size k, straight priority, O(n²/k+n)",
		New:     func() sim.Algorithm { return dex.NewAdapter(policies.Thm15{}) },
		Config:  Thm15Config,
	},
	NameFarthestFirst: {
		Name:    NameFarthestFirst,
		Summary: "dimension order with farthest-first outqueue (not destination-exchangeable)",
		New:     func() sim.Algorithm { return DimOrderFF{} },
		Config:  minimalCentral,
	},
	NameRandZigZag: {
		Name:          NameRandZigZag,
		Summary:       "randomized minimal adaptive alternation (Section 7 escape hatch 3)",
		New:           func() sim.Algorithm { return RandZigZag{Seed: 0} },
		NewFaultAware: func() sim.Algorithm { return RandZigZag{Seed: 0, FaultAware: true} },
		NewSeeded: func(seed uint64, faultAware bool) sim.Algorithm {
			return RandZigZag{Seed: seed, FaultAware: faultAware}
		},
		Config: minimalCentral,
	},
	NameScheduled: {
		Name:    NameScheduled,
		Summary: "offline path-scheduled O(C+D) baseline: random delays in [0,C) over the analysis path system",
		Offline: true,
		New:     func() sim.Algorithm { return NewScheduled(0) },
		NewSeeded: func(seed uint64, faultAware bool) sim.Algorithm {
			return NewScheduled(seed)
		},
		Config: minimalCentral,
	},
	NameStrayDimOrder: {
		Name:    NameStrayDimOrder,
		Summary: "dimension order with a 1-column overshoot budget (Section 5 nonminimal extension)",
		New:     func() sim.Algorithm { return dex.NewAdapter(policies.StrayDimOrder{Delta: 1}) },
		Config: func(topo grid.Topology, k int) sim.Config {
			return sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, MaxStray: 1, CheckInvariants: true}
		},
	},
	NameHotPotato: {
		Name:    NameHotPotato,
		Summary: "deterministic deflection baseline (nonminimal)",
		New:     func() sim.Algorithm { return dex.NewAdapter(policies.HotPotato{}) },
		Config:  func(topo grid.Topology, k int) sim.Config { return HotPotatoConfig(topo) },
	},
}

// Lookup returns the spec registered under name, and whether there is one.
func Lookup(name string) (Spec, bool) {
	spec, ok := registry[name]
	return spec, ok
}

// Names lists the registered router names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
