// Package fault provides deterministic, seeded fault schedules for the
// routing engine: transient and permanent link failures and node stalls.
// A schedule is generated up front from a topology, a seed and a small
// parameter set, so a run under faults is exactly reproducible from
// (workload seed, fault seed) — the property the robustness experiments
// and the fault fuzzer rely on (see docs/ROBUSTNESS.md).
//
// The package is a leaf: it imports only internal/grid, so the engine
// (internal/sim), the routers and the CLIs can all depend on it without
// cycles. The engine consumes a Schedule as a sorted event stream and
// applies the events that fall due at the start of each step, before the
// outqueue policies run (part (a) of the five-part step).
//
// Fault model:
//
//   - Link failures are bidirectional: when the link between adjacent
//     nodes A and B fails, both directed channels (A→B and B→A) are down,
//     so a schedule emits one LinkDown event per endpoint. A transient
//     failure recovers after a sampled duration (paired LinkUp events); a
//     permanent one never does.
//   - Node stalls freeze a node for a window: a stalled node neither
//     schedules, accepts, nor updates, and packets cannot be delivered
//     into it. Its resident packets are preserved.
//
// Overlapping episodes on the same link or node are legal; the engine
// tracks them with counters, so a link is up again only once every
// transient episode covering it has ended.
package fault

import (
	"fmt"
	"math/rand"
	"sort"

	"meshroute/internal/grid"
)

// Kind identifies a fault event type.
type Kind uint8

const (
	// LinkDown takes the directed channel (Node, Dir) down.
	LinkDown Kind = iota
	// LinkUp ends one transient down episode of the channel (Node, Dir).
	LinkUp
	// NodeStall freezes the node.
	NodeStall
	// NodeWake ends one stall episode of the node.
	NodeWake
)

var kindNames = [...]string{"link-down", "link-up", "node-stall", "node-wake"}

// String returns the event kind's wire name (used in the fault-event
// JSONL lines, see docs/ROBUSTNESS.md).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one scheduled fault state change. Events take effect at the
// start of step Step, before outqueue scheduling.
type Event struct {
	// Step is the 1-based engine step at which the event takes effect.
	Step int
	// Kind is the event type.
	Kind Kind
	// Node is the affected node (for link events, the channel's sender).
	Node grid.NodeID
	// Dir is the directed channel's direction for link events; NoDir for
	// node events.
	Dir grid.Dir
	// Permanent marks a LinkDown that never recovers (no paired LinkUp).
	Permanent bool
}

// Config parameterizes Generate. The zero value yields an empty schedule.
// Its JSON names are the keys of a scenario spec's "faults" object
// (internal/scenario), which parses straight into it.
type Config struct {
	// Seed selects the deterministic random stream.
	Seed int64 `json:"seed,omitempty"`
	// Horizon is the number of steps over which fault onsets are drawn
	// (onset steps are uniform in [1, Horizon]). Required (>= 1) when any
	// episode count is positive.
	Horizon int `json:"horizon,omitempty"`
	// LinkFailures is the number of link-failure episodes to inject.
	// Links are drawn uniformly with replacement, so the same link may
	// fail more than once.
	LinkFailures int `json:"link_failures,omitempty"`
	// MeanDownSteps is the mean duration of a transient link failure
	// (durations are 1 + an exponential with this mean). Default 1.
	MeanDownSteps int `json:"mean_down_steps,omitempty"`
	// PermanentFrac is the probability, per link-failure episode, that
	// the failure is permanent. Must be in [0, 1].
	PermanentFrac float64 `json:"permanent_frac,omitempty"`
	// NodeStalls is the number of node-stall episodes to inject.
	NodeStalls int `json:"node_stalls,omitempty"`
	// MeanStallSteps is the mean stall duration. Default 1.
	MeanStallSteps int `json:"mean_stall_steps,omitempty"`
}

// Schedule is an immutable, sorted fault schedule. Build one with
// Generate (or assemble Events by hand and call Finalize for tests).
type Schedule struct {
	// Events is the event stream, sorted by Step; events sharing a step
	// keep their generation order. The engine applies every event with
	// Step <= t at the start of step t.
	Events []Event
	// N is the node count of the topology the schedule was generated
	// for; the engine rejects a schedule whose N does not match.
	N int
}

// Empty reports whether the schedule contains no events.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// Counts returns the number of events per kind, in Kind order.
func (s *Schedule) Counts() [4]int {
	var c [4]int
	for _, e := range s.Events {
		c[e.Kind]++
	}
	return c
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	c := s.Counts()
	perm := 0
	for _, e := range s.Events {
		if e.Kind == LinkDown && e.Permanent {
			perm++
		}
	}
	return fmt.Sprintf("fault.Schedule{%d events: %d link-down (%d permanent), %d link-up, %d stalls, %d wakes}",
		len(s.Events), c[LinkDown], perm, c[LinkUp], c[NodeStall], c[NodeWake])
}

// Finalize sorts the events by step (stable, preserving insertion order
// within a step) and returns the schedule, for hand-assembled schedules.
func (s *Schedule) Finalize() *Schedule {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Step < s.Events[j].Step })
	return s
}

// Validate checks every event against a topology: nodes in range, link
// events on existing outlinks, steps >= 1, and node events carrying NoDir.
func (s *Schedule) Validate(topo grid.Topology) error {
	if s.N != 0 && s.N != topo.N() {
		return fmt.Errorf("fault: schedule generated for %d nodes, topology has %d", s.N, topo.N())
	}
	for i, e := range s.Events {
		if e.Step < 1 {
			return fmt.Errorf("fault: event %d has step %d (want >= 1)", i, e.Step)
		}
		if int(e.Node) < 0 || int(e.Node) >= topo.N() {
			return fmt.Errorf("fault: event %d names node %d outside the topology", i, e.Node)
		}
		switch e.Kind {
		case LinkDown, LinkUp:
			if e.Dir >= grid.NumDirs {
				return fmt.Errorf("fault: link event %d has invalid direction %v", i, e.Dir)
			}
			if _, ok := topo.Neighbor(e.Node, e.Dir); !ok {
				return fmt.Errorf("fault: link event %d names missing outlink %v of node %v",
					i, e.Dir, topo.CoordOf(e.Node))
			}
		case NodeStall, NodeWake:
			if e.Dir != grid.NoDir {
				return fmt.Errorf("fault: node event %d carries direction %v (want NoDir)", i, e.Dir)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// link is one undirected mesh link, identified by its canonical endpoint
// and direction (East or North).
type link struct {
	node grid.NodeID
	dir  grid.Dir
}

// links enumerates the undirected links of the topology in deterministic
// order: for each node in ID order, its East then North outlink (this
// covers every link exactly once on both the mesh and the torus).
func links(topo grid.Topology) []link {
	out := make([]link, 0, 2*topo.N())
	for id := grid.NodeID(0); int(id) < topo.N(); id++ {
		for _, d := range [...]grid.Dir{grid.East, grid.North} {
			if _, ok := topo.Neighbor(id, d); ok {
				out = append(out, link{id, d})
			}
		}
	}
	return out
}

// Generate builds a seeded fault schedule for the topology. The same
// (topology, config) pair always yields the identical schedule, and the
// engine replays it into an identical fault-event stream.
func Generate(topo grid.Topology, cfg Config) (*Schedule, error) {
	if cfg.LinkFailures < 0 || cfg.NodeStalls < 0 {
		return nil, fmt.Errorf("fault: negative episode count (%d link failures, %d stalls)",
			cfg.LinkFailures, cfg.NodeStalls)
	}
	if cfg.PermanentFrac < 0 || cfg.PermanentFrac > 1 {
		return nil, fmt.Errorf("fault: PermanentFrac %v outside [0, 1]", cfg.PermanentFrac)
	}
	s := &Schedule{N: topo.N()}
	if cfg.LinkFailures == 0 && cfg.NodeStalls == 0 {
		return s, nil
	}
	if cfg.Horizon < 1 {
		return nil, fmt.Errorf("fault: Horizon %d (want >= 1 when injecting faults)", cfg.Horizon)
	}
	meanDown := cfg.MeanDownSteps
	if meanDown < 1 {
		meanDown = 1
	}
	meanStall := cfg.MeanStallSteps
	if meanStall < 1 {
		meanStall = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ls := links(topo)
	if len(ls) == 0 && cfg.LinkFailures > 0 {
		return nil, fmt.Errorf("fault: topology has no links to fail")
	}
	for i := 0; i < cfg.LinkFailures; i++ {
		l := ls[rng.Intn(len(ls))]
		nb, _ := topo.Neighbor(l.node, l.dir)
		start := 1 + rng.Intn(cfg.Horizon)
		perm := rng.Float64() < cfg.PermanentFrac
		// Both directed channels fail together (bidirectional link).
		s.Events = append(s.Events,
			Event{Step: start, Kind: LinkDown, Node: l.node, Dir: l.dir, Permanent: perm},
			Event{Step: start, Kind: LinkDown, Node: nb, Dir: l.dir.Opposite(), Permanent: perm})
		if !perm {
			dur := 1 + int(rng.ExpFloat64()*float64(meanDown))
			s.Events = append(s.Events,
				Event{Step: start + dur, Kind: LinkUp, Node: l.node, Dir: l.dir},
				Event{Step: start + dur, Kind: LinkUp, Node: nb, Dir: l.dir.Opposite()})
		}
	}
	for i := 0; i < cfg.NodeStalls; i++ {
		id := grid.NodeID(rng.Intn(topo.N()))
		start := 1 + rng.Intn(cfg.Horizon)
		dur := 1 + int(rng.ExpFloat64()*float64(meanStall))
		s.Events = append(s.Events,
			Event{Step: start, Kind: NodeStall, Node: id, Dir: grid.NoDir},
			Event{Step: start + dur, Kind: NodeWake, Node: id, Dir: grid.NoDir})
	}
	return s.Finalize(), nil
}
