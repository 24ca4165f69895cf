// Package scenario is the declarative run layer of the repository: a Spec
// names everything one simulation run needs — topology, queue capacity,
// router (by registry name, including fault-aware variants and the
// randomized router's seed), workload, fault schedule, invariant checking,
// watchdog, step budget and observability outputs —
// with JSON (de)serialization, typed validation errors, and a Build step
// that resolves the router registry into a ready-to-run network.
//
// Every routing run of the reproduction goes through this layer: the root
// package's Route facade, the CLIs (cmd/meshroute -scenario,
// cmd/experiments), the experiment cells in internal/experiments, the
// service and fleet, the repository benchmark under bench/, and the
// golden-digest suite, whose pinned scenarios are committed spec files
// under testdata/scenarios/. The adversary constructions drive the engine
// themselves (internal/adversary). See docs/ARCHITECTURE.md for how the
// layers stack.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"meshroute/internal/analysis"
	"meshroute/internal/bounds"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Topology names accepted by Spec.Topology.
const (
	TopoMesh  = "mesh"
	TopoTorus = "torus"
)

// Queue-model names accepted by Spec.Queues.
const (
	QueuesCentral   = "central"
	QueuesPerInlink = "per-inlink"
)

// Workload kinds accepted by Workload.Kind. The static kinds place every
// packet before step 1; the one dynamic kind, KindOnline, streams
// injections from an arrival process over a horizon and runs for exactly
// that many steps (or, with Drain, until the network empties).
const (
	KindRandom     = "random"      // uniformly random full permutation (Seed)
	KindRandomDest = "random-dest" // independent uniform destinations (Seed)
	KindTranspose  = "transpose"
	KindReversal   = "reversal"
	KindBitRev     = "bitrev" // power-of-two side required
	KindRotation   = "rotation"
	KindHH         = "hh"     // h random permutations overlaid (H, Seed)
	KindPairs      = "pairs"  // explicit source/destination pairs
	KindOnline     = "online" // streaming arrival process with admission policy
)

// Arrival processes accepted by Workload.Process for the online kind.
const (
	ProcessBernoulli = "bernoulli" // memoryless per-node rate, uniform dest
	ProcessOnOff     = "onoff"     // bursty on/off windows (Burst, Gap)
	ProcessHotspot   = "hotspot"   // all traffic converges on Hotspots nodes
	ProcessTranspose = "transpose" // sustained transpose pattern
	ProcessPeriodic  = "periodic"  // deterministic pattern, sets its own rate
)

// Admission policies accepted by Workload.Admission for the online kind.
const (
	AdmissionRetry = "retry" // refused injections wait in the source backlog
	AdmissionDrop  = "drop"  // refused injections are counted and discarded
)

// Workload selects the routing instance of a Spec.
type Workload struct {
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Seed drives the random kinds (random, random-dest, hh) and the
	// online kind's random arrival processes; periodic ignores it.
	Seed int64 `json:"seed,omitempty"`
	// H is the per-node send bound of the hh kind.
	H int `json:"h,omitempty"`
	// DX, DY are the rotation kind's shift.
	DX int `json:"dx,omitempty"`
	DY int `json:"dy,omitempty"`
	// Pairs are the explicit endpoints of the pairs kind.
	Pairs []workload.Pair `json:"pairs,omitempty"`
	// Horizon is the online kind's injection-and-run window in steps:
	// the run executes exactly Horizon steps (more with Drain). The
	// periodic process injects over the first Horizon/2 steps, the others
	// over all of them.
	Horizon int `json:"horizon,omitempty"`
	// Rate is the per-node injection probability per step of every online
	// arrival process but periodic, which takes none.
	Rate float64 `json:"rate,omitempty"`
	// Process selects the online kind's arrival process (Process*
	// constants); empty defaults to "bernoulli".
	Process string `json:"process,omitempty"`
	// Admission selects the online kind's policy for injections refused by
	// a full source queue (Admission* constants); empty defaults to
	// "retry".
	Admission string `json:"admission,omitempty"`
	// Drain, for the online kind, keeps the run going after the horizon
	// until the network empties (bounded by the automatic step budget)
	// instead of stopping at exactly Horizon steps.
	Drain bool `json:"drain,omitempty"`
	// Burst and Gap are the onoff process's window lengths in steps.
	Burst int `json:"burst,omitempty"`
	Gap   int `json:"gap,omitempty"`
	// Hotspots is the hotspot process's hot-node count; 0 defaults to 1.
	Hotspots int `json:"hotspots,omitempty"`
}

// Dynamic reports whether the workload schedules injections over time (and
// therefore runs for exactly Horizon steps, unless Drain is set) rather
// than placing packets up front: whether it is the online kind.
func (w Workload) Dynamic() bool { return w.Kind == KindOnline }

// ApplyOnlineDefaults materializes the online kind's defaulted knobs in
// place (process "bernoulli", admission "retry", one hotspot for the
// hotspot process). A no-op for every other kind, so fingerprints of
// non-online specs are unchanged; for online specs it makes the defaults
// explicit, so a spec relying on them fingerprints identically to one
// spelling them out (and -dump-scenario prints the materialized values).
func (w *Workload) ApplyOnlineDefaults() {
	if w.Kind != KindOnline {
		return
	}
	if w.Process == "" {
		w.Process = ProcessBernoulli
	}
	if w.Admission == "" {
		w.Admission = AdmissionRetry
	}
	if w.Process == ProcessHotspot && w.Hotspots == 0 {
		w.Hotspots = 1
	}
}

// Faults parameterizes the seeded fault schedule of a Spec: the fault
// package's own parameters, whose JSON names are the spec's "faults" keys
// (see internal/fault for semantics).
type Faults = fault.Config

// Spec is one declarative run description. The zero value is invalid;
// populate at least N, K, Router and Workload.Kind. JSON field names are
// the on-disk scenario format (testdata/scenarios/*.json).
type Spec struct {
	// Name labels the scenario (digest keys, table rows). Optional.
	Name string `json:"name,omitempty"`
	// Topology is "mesh" (the default when empty) or "torus".
	Topology string `json:"topology,omitempty"`
	// N is the side length of the square topology.
	N int `json:"n"`
	// K is the per-queue capacity passed to the router's Config.
	K int `json:"k"`
	// Router is the registry name (routers.Names).
	Router string `json:"router"`
	// FaultAware selects the router's fault-aware variant.
	FaultAware bool `json:"fault_aware,omitempty"`
	// Seed seeds a randomized router's decision stream (rand-zigzag);
	// nonzero on a deterministic router is a validation error.
	Seed uint64 `json:"seed,omitempty"`
	// Queues optionally asserts the queue model ("central"/"per-inlink");
	// a value conflicting with the router's required model is a
	// validation error. Empty accepts the router's model.
	Queues string `json:"queues,omitempty"`
	// CheckInvariants overrides the router Config's invariant-checker
	// setting; nil keeps the router's default.
	CheckInvariants *bool `json:"check_invariants,omitempty"`
	// Workload is the routing instance.
	Workload Workload `json:"workload"`
	// Analysis computes the workload's congestion C and dilation D (the
	// Rothvoß C+D yardstick, see docs/ANALYSIS.md) and reports the
	// efficiency ratio makespan/(C+D) in the run's stats and metrics
	// JSONL. Static workloads analyze their path system at build time;
	// dynamic workloads accrue C/D at admission time. Off by default —
	// analysis-off runs pay one nil check per admission and fingerprint
	// identically to specs predating the knob.
	Analysis bool `json:"analysis,omitempty"`
	// Faults, when non-nil, generates a seeded fault schedule for the run.
	Faults *Faults `json:"faults,omitempty"`
	// Watchdog is the livelock no-progress window in steps (0 = off).
	Watchdog int `json:"watchdog,omitempty"`
	// Workers was the engine's intra-step worker count.
	//
	// Deprecated: the engine runs every step serially. The field is still
	// accepted (and must not be negative) so older specs keep loading, but
	// Build ignores it and Fingerprint clears it.
	Workers int `json:"workers,omitempty"`
	// MaxSteps is the step budget; 0 means the generous automatic budget
	// 200·(n²/k + 2n). Ignored by dynamic workloads, which run for
	// exactly Workload.Horizon steps.
	MaxSteps int `json:"max_steps,omitempty"`
	// MetricsOut, when set, writes per-step metrics JSONL to this path.
	MetricsOut string `json:"metrics_out,omitempty"`
}

// Bool returns a pointer for Spec.CheckInvariants literals.
func Bool(b bool) *bool { return &b }

// ValidationError reports a single invalid Spec field. Field is the JSON
// path of the offending field (e.g. "workload.kind").
type ValidationError struct {
	// Field is the JSON path of the invalid field.
	Field string
	// Reason explains the constraint that failed.
	Reason string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("scenario: invalid %s: %s", e.Field, e.Reason)
}

func invalid(field, format string, args ...any) *ValidationError {
	return &ValidationError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// queueModelName maps a sim queue model to its spec name.
func queueModelName(q sim.QueueModel) string {
	if q == sim.PerInlinkQueues {
		return QueuesPerInlink
	}
	return QueuesCentral
}

// Validate checks the Spec without building anything. It returns a
// *ValidationError naming the first offending field, or nil.
func (s *Spec) Validate() error {
	switch s.Topology {
	case "", TopoMesh, TopoTorus:
	default:
		return invalid("topology", "unknown topology %q (want %q or %q)", s.Topology, TopoMesh, TopoTorus)
	}
	if s.N < 1 {
		return invalid("n", "side length %d, need n >= 1", s.N)
	}
	if s.K < 1 {
		return invalid("k", "queue capacity k=%d, need k >= 1", s.K)
	}
	rspec, ok := routers.Lookup(s.Router)
	if !ok {
		return invalid("router", "unknown router %q (have %v)", s.Router, routers.Names())
	}
	if s.FaultAware && rspec.NewFaultAware == nil {
		return invalid("fault_aware", "router %q has no fault-aware variant", s.Router)
	}
	if s.Seed != 0 && rspec.NewSeeded == nil {
		return invalid("seed", "router %q is deterministic and takes no seed", s.Router)
	}
	switch s.Queues {
	case "":
	case QueuesCentral, QueuesPerInlink:
		if want := queueModelName(rspec.Queues()); s.Queues != want {
			return invalid("queues", "router %q requires the %q queue model, spec says %q", s.Router, want, s.Queues)
		}
	default:
		return invalid("queues", "unknown queue model %q (want %q or %q)", s.Queues, QueuesCentral, QueuesPerInlink)
	}
	if rspec.Offline && s.Workload.Dynamic() {
		return invalid("router", "router %q is offline (precomputes its schedule before step 1) and cannot run the dynamic workload kind %q", s.Router, s.Workload.Kind)
	}
	if s.Router == routers.NameScheduled {
		h := 1 // the most packets the workload places at one source
		switch w := s.Workload; w.Kind {
		case KindHH:
			h = w.H
		case KindPairs:
			count := map[grid.NodeID]int{}
			for _, p := range w.Pairs {
				count[p.Src]++
				h = max(h, count[p.Src])
			}
		}
		if _, _, ok := bounds.Scheduled.Bound(bounds.Instance{K: s.K, H: h}); !ok {
			return invalid("k", "router %q reserves each queue's last slot for vertical traffic, so it needs k > h, the most packets one source places; k=%d, h=%d", s.Router, s.K, h)
		}
	}
	if s.Watchdog < 0 {
		return invalid("watchdog", "negative window %d", s.Watchdog)
	}
	if s.Workers < 0 {
		return invalid("workers", "negative worker count %d", s.Workers)
	}
	if s.MaxSteps < 0 {
		return invalid("max_steps", "negative budget %d", s.MaxSteps)
	}
	if err := s.ValidateWorkload(); err != nil {
		return err
	}
	if f := s.Faults; f != nil {
		if f.LinkFailures < 0 || f.NodeStalls < 0 {
			return invalid("faults", "negative episode count")
		}
		if f.PermanentFrac < 0 || f.PermanentFrac > 1 {
			return invalid("faults.permanent_frac", "%v outside [0, 1]", f.PermanentFrac)
		}
		if (f.LinkFailures > 0 || f.NodeStalls > 0) && f.Horizon < 1 {
			return invalid("faults.horizon", "horizon %d, need >= 1 when episodes are scheduled", f.Horizon)
		}
	}
	return nil
}

// ValidateWorkload checks the Spec's workload against its side length: the
// part of Validate a caller outside the router registry (meshroute's clt
// path) also needs. It returns a *ValidationError or nil.
func (s *Spec) ValidateWorkload() error {
	w := s.Workload
	switch w.Kind {
	case KindRandom, KindRandomDest, KindTranspose, KindReversal, KindRotation:
	case KindBitRev:
		if s.N&(s.N-1) != 0 {
			return invalid("workload.kind", "bitrev needs a power-of-two side, n=%d", s.N)
		}
	case KindHH:
		if w.H < 1 {
			return invalid("workload.h", "h-h workload needs h >= 1, got %d", w.H)
		}
	case KindPairs:
		if len(w.Pairs) == 0 {
			return invalid("workload.pairs", "pairs workload with no pairs")
		}
		max := grid.NodeID(s.N * s.N)
		for i, p := range w.Pairs {
			if p.Src < 0 || p.Src >= max || p.Dst < 0 || p.Dst >= max {
				return invalid("workload.pairs", "pair %d (%d->%d) outside the %d-node topology", i, p.Src, p.Dst, max)
			}
		}
	case KindOnline:
		if w.Horizon < 1 {
			return invalid("workload.horizon", "online workload needs horizon >= 1, got %d", w.Horizon)
		}
		switch {
		case w.Process == ProcessPeriodic && w.Rate != 0:
			return invalid("workload.rate", "rate %v set but the periodic process sets its own rate", w.Rate)
		case w.Process != ProcessPeriodic && (w.Rate <= 0 || w.Rate > 1):
			return invalid("workload.rate", "rate %v outside (0, 1]", w.Rate)
		}
		switch w.Process {
		case "", ProcessBernoulli, ProcessHotspot, ProcessTranspose, ProcessPeriodic:
		case ProcessOnOff:
			if w.Burst < 1 {
				return invalid("workload.burst", "onoff process needs burst >= 1, got %d", w.Burst)
			}
			if w.Gap < 1 {
				return invalid("workload.gap", "onoff process needs gap >= 1, got %d", w.Gap)
			}
		default:
			return invalid("workload.process", "unknown arrival process %q", w.Process)
		}
		switch w.Admission {
		case "", AdmissionRetry, AdmissionDrop:
		default:
			return invalid("workload.admission", "unknown admission policy %q (want %q or %q)", w.Admission, AdmissionRetry, AdmissionDrop)
		}
		if w.Hotspots < 0 {
			return invalid("workload.hotspots", "negative hotspot count %d", w.Hotspots)
		}
		if w.Hotspots > 0 && w.Process != ProcessHotspot {
			return invalid("workload.hotspots", "hotspots set but process is %q, not %q", w.Process, ProcessHotspot)
		}
		if (w.Burst != 0 || w.Gap != 0) && w.Process != ProcessOnOff {
			return invalid("workload.burst", "burst/gap set but process is %q, not %q", w.Process, ProcessOnOff)
		}
	case "":
		return invalid("workload.kind", "missing workload kind")
	default:
		return invalid("workload.kind", "unknown workload kind %q", w.Kind)
	}
	if w.Kind != KindOnline {
		switch {
		case w.Process != "":
			return invalid("workload.process", "process is an online-kind knob, kind is %q", w.Kind)
		case w.Admission != "":
			return invalid("workload.admission", "admission is an online-kind knob, kind is %q", w.Kind)
		case w.Drain:
			return invalid("workload.drain", "drain is an online-kind knob, kind is %q", w.Kind)
		case w.Burst != 0 || w.Gap != 0:
			return invalid("workload.burst", "burst/gap are online-kind knobs, kind is %q", w.Kind)
		case w.Hotspots != 0:
			return invalid("workload.hotspots", "hotspots is an online-kind knob, kind is %q", w.Kind)
		}
	}
	return nil
}

// Run is a built, ready-to-execute scenario: the validated network with
// its workload placed (or injections scheduled), the algorithm factory,
// and the step budget. Execute it with a Runner, or drive Net directly.
type Run struct {
	// Spec is the source spec.
	Spec *Spec
	// Net is the network, populated and ready for step 1.
	Net *sim.Network
	// NewAlg creates the (resolved) routing algorithm.
	NewAlg func() sim.Algorithm
	// Budget is the step budget of the run.
	Budget int
	// Faults is the generated fault schedule, or nil.
	Faults *fault.Schedule
	// Analysis, when the spec set "analysis": true, yields the workload's
	// congestion/dilation: for static workloads it closes over the path
	// system analyzed at build time, for dynamic workloads over the
	// admission-time accumulator installed on Net (read it only after the
	// run). Nil when analysis is off.
	Analysis func() analysis.Result
}

// Build validates the Spec, resolves the router registry, generates the
// fault schedule, constructs the network and applies the workload. The
// returned Run is ready for a Runner.
func (s *Spec) Build() (*Run, error) { return s.BuildWithFaults(nil) }

// BuildWithFaults is Build with a caller-built fault schedule, the one run
// input a Spec's JSON cannot carry: a non-nil sched is used in place of
// the schedule s.Faults would generate.
func (s *Spec) BuildWithFaults(sched *fault.Schedule) (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var topo grid.Topology
	if s.Topology == TopoTorus {
		topo = grid.NewSquareTorus(s.N)
	} else {
		topo = grid.NewSquareMesh(s.N)
	}
	rspec, _ := routers.Lookup(s.Router)
	cfg := rspec.Config(topo, s.K)
	if s.CheckInvariants != nil {
		cfg.CheckInvariants = *s.CheckInvariants
	}
	cfg.Watchdog = s.Watchdog
	if sched != nil {
		// A caller's schedule fails on its own terms, as sim.New reports it.
		if err := sched.Validate(topo); err != nil {
			return nil, err
		}
	} else if s.Faults != nil {
		var err error
		if sched, err = fault.Generate(topo, *s.Faults); err != nil {
			return nil, fmt.Errorf("scenario %s: faults: %w", s.describe(), err)
		}
	}
	cfg.Faults = sched
	net, err := sim.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
	}
	budget, analyze, err := s.applyWorkload(net, topo)
	if err != nil {
		return nil, err
	}
	newAlg := rspec.New
	switch {
	case s.Seed != 0:
		seed, fa := s.Seed, s.FaultAware
		newAlg = func() sim.Algorithm { return rspec.NewSeeded(seed, fa) }
	case s.FaultAware:
		newAlg = rspec.NewFaultAware
	}
	return &Run{
		Spec:     s,
		Net:      net,
		NewAlg:   newAlg,
		Budget:   budget,
		Faults:   sched,
		Analysis: analyze,
	}, nil
}

// StepBudget returns the run's step budget as Build computes it: MaxSteps
// (or the generous automatic budget 200·(n²/k + 2n) when zero) for static
// workloads; exactly Horizon for an online one; Horizon plus the static
// budget for an online workload with Drain, which keeps stepping past the
// horizon until the network empties.
func (s *Spec) StepBudget() int {
	w := s.Workload
	switch {
	case !w.Dynamic():
		return s.staticBudget()
	case w.Drain:
		return w.Horizon + s.staticBudget()
	}
	return w.Horizon
}

// staticBudget is MaxSteps, or the automatic budget 200·(n²/k + 2n) when
// MaxSteps is zero.
func (s *Spec) staticBudget() int {
	if s.MaxSteps != 0 {
		return s.MaxSteps
	}
	return 200 * (s.N*s.N/s.K + 2*s.N)
}

// Permutation returns the static permutation the workload names on topo,
// or nil for the online kind, which injects over time, and for an unknown
// kind.
func (w *Workload) Permutation(topo grid.Topology) *workload.Permutation {
	switch w.Kind {
	case KindRandom:
		return workload.Random(topo, w.Seed)
	case KindRandomDest:
		return workload.RandomDestinations(topo, w.Seed)
	case KindTranspose:
		return workload.Transpose(topo)
	case KindReversal:
		return workload.Reversal(topo)
	case KindBitRev:
		return workload.BitReversal(topo)
	case KindRotation:
		return workload.Rotation(topo, w.DX, w.DY)
	case KindHH:
		return workload.RandomHH(topo, w.H, w.Seed)
	case KindPairs:
		return &workload.Permutation{Pairs: w.Pairs}
	}
	return nil
}

// applyWorkload places or schedules the Spec's workload and returns the
// run's step budget and, when the analysis knob is on, the function
// yielding the workload's congestion/dilation (see Run.Analysis).
func (s *Spec) applyWorkload(net *sim.Network, topo grid.Topology) (int, func() analysis.Result, error) {
	w := s.Workload
	// Dynamic workloads accrue C/D at admission time: the accumulator
	// must be installed before AttachSource, whose step-0 injections
	// already count.
	var analyze func() analysis.Result
	if s.Analysis && w.Dynamic() {
		acc := analysis.NewAccumulator(topo)
		net.SetAnalyzer(acc)
		analyze = acc.Result
	}
	if w.Kind == KindOnline {
		w.ApplyOnlineDefaults()
		var src workload.Source
		switch w.Process {
		case ProcessBernoulli:
			src = workload.NewBernoulli(s.N*s.N, w.Rate, w.Horizon, w.Seed)
		case ProcessOnOff:
			src = workload.NewOnOff(s.N*s.N, w.Rate, w.Burst, w.Gap, w.Horizon, w.Seed)
		case ProcessHotspot:
			src = workload.NewHotspot(topo, w.Hotspots, w.Rate, w.Horizon, w.Seed)
		case ProcessTranspose:
			src = workload.NewTransposeStream(topo, w.Rate, w.Horizon, w.Seed)
		case ProcessPeriodic:
			src = workload.NewBurst(s.N*s.N, w.Horizon)
		default:
			return 0, nil, invalid("workload.process", "unknown arrival process %q", w.Process)
		}
		policy := sim.AdmitRetry
		if w.Admission == AdmissionDrop {
			policy = sim.AdmitDrop
		}
		if err := net.AttachSource(src, policy); err != nil {
			return 0, nil, fmt.Errorf("scenario %s: attach workload: %w", s.describe(), err)
		}
		return s.StepBudget(), analyze, nil
	}
	perm := w.Permutation(topo)
	if perm == nil {
		return 0, nil, invalid("workload.kind", "unknown workload kind %q", w.Kind)
	}
	if err := perm.Place(net); err != nil {
		return 0, nil, fmt.Errorf("scenario %s: place workload: %w", s.describe(), err)
	}
	// Static workloads are analyzed exactly: the whole demand set is known
	// up front, so the path system (canonical plus the greedy improvement
	// pass) is built once here and its C/D read out lazily.
	if s.Analysis {
		analyze = analysis.Analyze(topo, perm.Pairs).Result
	}
	return s.StepBudget(), analyze, nil
}

// describe labels the spec in error messages.
func (s *Spec) describe() string {
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s-n%d-k%d", s.Router, s.N, s.K)
}

// Parse decodes one Spec from JSON. Unknown fields are an error, so typos
// in hand-written scenario files fail loudly; the decoded spec is
// validated before it is returned.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseSubmission decodes a submission: one spec object, or a JSON array
// of specs, which is a sweep even when it holds one spec. Each spec goes
// through Parse. The error texts are the ones the service answers a bad
// POST /v1/jobs body with.
func ParseSubmission(data []byte) (specs []*Spec, sweep bool, err error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '[' {
		spec, err := Parse(data)
		if err != nil {
			return nil, false, err
		}
		return []*Spec{spec}, false, nil
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(trimmed, &raws); err != nil {
		return nil, true, fmt.Errorf("parse sweep: %w", err)
	}
	if len(raws) == 0 {
		return nil, true, errors.New("empty sweep")
	}
	specs = make([]*Spec, len(raws))
	for i, raw := range raws {
		if specs[i], err = Parse(raw); err != nil {
			return nil, true, fmt.Errorf("sweep spec %d: %w", i, err)
		}
	}
	return specs, true, nil
}

// Load reads, parses and validates a scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// JSON renders the Spec as indented JSON with a trailing newline — the
// committed scenario-file format.
func (s *Spec) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write writes the Spec's JSON form.
func (s *Spec) Write(w io.Writer) error {
	data, err := s.JSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}
