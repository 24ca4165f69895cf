package routers

import (
	"sort"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
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

// Spec describes one of the built-in routing algorithms.
type Spec struct {
	// Name is the registry key.
	Name string
	// Summary is a one-line description.
	Summary string
	// DestinationExchangeable reports whether the router fits the
	// Section 2 restricted model (and therefore Theorem 14).
	DestinationExchangeable bool
	// Minimal reports whether the router uses only shortest paths.
	Minimal bool
	// Offline reports that the router must see the whole instance before
	// step 1 (it precomputes a global schedule), so it supports static
	// workloads only; the scenario layer rejects dynamic workloads for it.
	Offline bool
	// Queues is the queue model the router requires.
	Queues sim.QueueModel
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
	// Config builds the network configuration for a topology and k.
	Config func(topo grid.Topology, k int) sim.Config
}

// minimalCentral is the configuration of a minimal central-queue router.
func minimalCentral(topo grid.Topology, k int) sim.Config {
	return sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
}

var registry = map[string]Spec{
	NameDimOrder: {
		Name:                    NameDimOrder,
		Summary:                 "dimension order, FIFO outqueue, round-robin inqueue, central queue",
		DestinationExchangeable: true,
		Minimal:                 true,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return dex.NewAdapter(DimOrderFIFO{}) },
		Config:                  minimalCentral,
	},
	NameZigZag: {
		Name:                    NameZigZag,
		Summary:                 "minimal adaptive alternation (Section 2 example), central queue",
		DestinationExchangeable: true,
		Minimal:                 true,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return dex.NewAdapter(ZigZag{}) },
		NewFaultAware:           func() sim.Algorithm { return dex.NewAdapter(ZigZag{FaultAware: true}) },
		Config:                  minimalCentral,
	},
	NameThm15: {
		Name:                    NameThm15,
		Summary:                 "Theorem 15: four inlink queues of size k, straight priority, O(n²/k+n)",
		DestinationExchangeable: true,
		Minimal:                 true,
		Queues:                  sim.PerInlinkQueues,
		New:                     func() sim.Algorithm { return dex.NewAdapter(Thm15{}) },
		Config:                  Thm15Config,
	},
	NameFarthestFirst: {
		Name:                    NameFarthestFirst,
		Summary:                 "dimension order with farthest-first outqueue (not destination-exchangeable)",
		DestinationExchangeable: false,
		Minimal:                 true,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return DimOrderFF{} },
		Config:                  minimalCentral,
	},
	NameRandZigZag: {
		Name:                    NameRandZigZag,
		Summary:                 "randomized minimal adaptive alternation (Section 7 escape hatch 3)",
		DestinationExchangeable: false, // randomized: outside the deterministic model
		Minimal:                 true,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return RandZigZag{Seed: 0} },
		NewFaultAware:           func() sim.Algorithm { return RandZigZag{Seed: 0, FaultAware: true} },
		NewSeeded: func(seed uint64, faultAware bool) sim.Algorithm {
			return RandZigZag{Seed: seed, FaultAware: faultAware}
		},
		Config: minimalCentral,
	},
	NameScheduled: {
		Name:                    NameScheduled,
		Summary:                 "offline path-scheduled O(C+D) baseline: random delays in [0,C) over the analysis path system",
		DestinationExchangeable: false,
		Minimal:                 true,
		Offline:                 true,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return NewScheduled(0) },
		NewSeeded: func(seed uint64, faultAware bool) sim.Algorithm {
			return NewScheduled(seed)
		},
		Config: minimalCentral,
	},
	NameStrayDimOrder: {
		Name:                    NameStrayDimOrder,
		Summary:                 "dimension order with a 1-column overshoot budget (Section 5 nonminimal extension)",
		DestinationExchangeable: true,
		Minimal:                 false,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return dex.NewAdapter(StrayDimOrder{Delta: 1}) },
		Config: func(topo grid.Topology, k int) sim.Config {
			return sim.Config{Topo: topo, K: k, Queues: sim.CentralQueue, MaxStray: 1, CheckInvariants: true}
		},
	},
	NameHotPotato: {
		Name:                    NameHotPotato,
		Summary:                 "deterministic deflection baseline (nonminimal)",
		DestinationExchangeable: true,
		Minimal:                 false,
		Queues:                  sim.CentralQueue,
		New:                     func() sim.Algorithm { return HotPotato{} },
		Config:                  func(topo grid.Topology, k int) sim.Config { return HotPotatoConfig(topo) },
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
