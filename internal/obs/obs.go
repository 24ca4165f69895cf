// Package obs is the observability layer of the reproduction: a
// low-overhead metrics sink that the simulator (internal/sim) feeds one
// StepSample per engine step and that the Section 6 algorithm
// (internal/clt) feeds one Span per phase, so that every executable claim
// of the paper — makespan, queue occupancy (Lemma 28), per-phase durations
// (Lemmas 29-32) — can be exported as a time series and checked offline
// instead of only as end-of-run scalars.
//
// The package is a leaf: it imports only internal/grid, so every layer
// above (sim, clt, trace, the CLIs, the bench harness) can depend on it
// without cycles. Producers hold a Sink interface value and guard every
// emission with a nil check, so the disabled case costs one predictable
// branch and zero allocations on the hot step loop.
//
// Every sink implements the one Sink interface, all four record kinds.
// EventLog encodes records as the JSON lines of docs/OBSERVABILITY.md and
// keeps them in memory up to a record limit, JSONL writes an unbounded
// log's lines to a writer, Records collects records (the type
// ReadJSONLRecords parses a stream back into), Counters totals them, and
// Multi fans out to several sinks at once.
package obs

import (
	"math/bits"

	"meshroute/internal/grid"
)

// NumQueueBuckets is the number of exponential histogram buckets in a
// QueueHist. Bucket i counts queues whose end-of-step occupancy v
// satisfies 2^i <= v < 2^(i+1); the last bucket is unbounded above.
// Empty queues are not counted (on sparse instances almost every queue is
// empty, and the paper's quantities of interest are the occupied ones).
const NumQueueBuckets = 8

// QueueHist is a fixed-size exponential histogram of per-queue occupancy,
// indexed by BucketOf. It is a value type so building one per step does
// not allocate.
type QueueHist [NumQueueBuckets]int

// BucketOf returns the QueueHist bucket index for occupancy v >= 1:
// bucket 0 holds v = 1, bucket 1 holds v in {2,3}, bucket 2 holds 4..7,
// and so on; occupancies of 2^(NumQueueBuckets-1) = 128 and above land in
// the last bucket.
//
// The engine calls it for every non-empty queue of every sampled step, on
// occupancies that vary from node to node, so it is a bit count and a
// clamp rather than a loop whose trip count the branch predictor must guess.
func BucketOf(v int) int {
	if v < 1 {
		return 0
	}
	return min(bits.Len(uint(v))-1, NumQueueBuckets-1)
}

// Add counts one queue of occupancy v (ignored if v < 1).
func (h *QueueHist) Add(v int) {
	if v >= 1 {
		h[BucketOf(v)]++
	}
}

// Total returns the number of queues counted.
func (h *QueueHist) Total() int {
	t := 0
	for _, c := range h {
		t += c
	}
	return t
}

// StepSample is one engine step's worth of time-series metrics. The JSON
// keys are deliberately short (the dominant cost of a metrics file is the
// per-step record); docs/OBSERVABILITY.md is the schema reference.
type StepSample struct {
	// Step is the 1-based step number.
	Step int `json:"s"`
	// Moves is the number of accepted transmissions this step (including
	// deliveries).
	Moves int `json:"mv"`
	// LinkUse counts this step's transmissions per travel direction,
	// indexed by grid.Dir (East, North, West, South). Summed over steps
	// it is the per-direction link utilization.
	LinkUse [grid.NumDirs]int `json:"lu"`
	// Delivered is the number of packets delivered this step.
	Delivered int `json:"dv"`
	// DeliveredTotal is the cumulative delivery count — the delivery
	// curve.
	DeliveredTotal int `json:"dt"`
	// InFlight is the number of packets resident in the network at the
	// end of the step (placed or injected, not yet delivered; packets
	// still waiting in an injection backlog are not resident).
	InFlight int `json:"if"`
	// OccupiedNodes is the number of nodes holding at least one packet
	// at the end of the step.
	OccupiedNodes int `json:"on"`
	// MaxQueue is the largest single-queue occupancy at the end of the
	// step (excluding the unbounded origin buffer of the per-inlink
	// model) — the per-step version of the quantity bounded by k.
	MaxQueue int `json:"mq"`
	// QueueHist is the occupancy histogram over all non-empty queues at
	// the end of the step.
	QueueHist QueueHist `json:"qh"`
	// Offered is the number of injection requests presented to this
	// step's admission phase (streamed or scheduled injections; always 0
	// for one-shot workloads, so the field is omitted and the static wire
	// format is unchanged).
	Offered int `json:"of,omitempty"`
	// Admitted is the number of offers admitted into a queue (or
	// delivered in place) this step.
	Admitted int `json:"ad,omitempty"`
	// Refused is this step's admission refusals: backlogged retries plus
	// dropped offers.
	Refused int `json:"rf,omitempty"`
	// Backlog is the number of packets waiting in injection backlogs at
	// the end of the admission phase.
	Backlog int `json:"bl,omitempty"`
}

// Span is one named algorithm phase with its measured duration and, where
// the paper gives one, the closed-form schedule length it must respect.
// The Section 6 router emits one Span per March / Sort-and-Smooth /
// Balancing phase (Lemmas 29-31) and per base case (Lemma 32), so the
// per-phase bounds can be checked from a recorded run, not just in
// aggregate.
type Span struct {
	// Name identifies the phase kind (e.g. "march", "sortsmooth",
	// "balance", "basecase").
	Name string `json:"name"`
	// Class is the packet class being routed ("NE", "NW", "SE", "SW"),
	// when the producer routes per class.
	Class string `json:"class,omitempty"`
	// Iteration is the tile-refinement iteration j (tile side n/3^j).
	Iteration int `json:"iter"`
	// Tiling is the shifted-tiling index tau in 0..2 (Lemma 19).
	Tiling int `json:"tau"`
	// Axis is "v" for a Vertical Phase, "h" for a Horizontal Phase, or
	// empty when the distinction does not apply.
	Axis string `json:"axis,omitempty"`
	// Start is the phase-clock step at which the span begins (the sum of
	// the Formula durations of all earlier spans, matching the paper's
	// globally synchronized schedule).
	Start int `json:"start"`
	// Measured is the number of steps until the phase went quiescent.
	Measured int `json:"measured"`
	// Formula is the synchronized schedule length from the governing
	// lemma (0 when no closed form applies). Measured <= Formula is the
	// per-phase statement of Lemmas 29-32.
	Formula int `json:"formula"`
}

// Event is one fault or watchdog occurrence: a link going down or
// recovering, a node stalling or waking, a livelock-watchdog abort, or an
// unreachability detection (see docs/ROBUSTNESS.md for the semantics and
// the JSONL wire format). Events are rare compared to steps, so they carry
// a free-form detail string.
type Event struct {
	// Step is the engine step at which the event took effect.
	Step int `json:"s"`
	// Kind is the event kind: "link-down", "link-up", "node-stall",
	// "node-wake", "watchdog" or "unreachable".
	Kind string `json:"k"`
	// Node is the affected node identifier (-1 for run-level events such
	// as a watchdog abort).
	Node int `json:"n"`
	// Dir is the affected channel's direction name for link events.
	Dir string `json:"d,omitempty"`
	// Detail carries event-specific context (e.g. "permanent" for a
	// permanent link failure, or the diagnostics summary of a watchdog
	// abort).
	Detail string `json:"msg,omitempty"`
}

// RunSummary is the terminal record of an analyzed run: the workload's
// congestion C and dilation D (see internal/analysis and
// docs/ANALYSIS.md) and the achieved makespan, from which CDRatio =
// makespan/(C+D) is the theory-grounded efficiency of the run. The
// scenario runner emits exactly one RunSummary per run that has the
// analysis knob on; analysis-off runs emit none, so pre-analysis metrics
// streams are byte-identical.
type RunSummary struct {
	// Scenario is the spec name, when the run had one.
	Scenario string `json:"scenario,omitempty"`
	// Router is the routing algorithm's name.
	Router string `json:"router,omitempty"`
	// Makespan is the delivery step of the last packet.
	Makespan int `json:"makespan"`
	// Congestion and Dilation are the analyzed C and D.
	Congestion int `json:"congestion"`
	Dilation   int `json:"dilation"`
	// CDRatio is Makespan/(Congestion+Dilation) (0 for an empty workload).
	CDRatio float64 `json:"cd_ratio"`
}

// Sink receives metrics: one StepSample per engine step, one Span per
// phase, fault and watchdog Events, and the RunSummary of an analyzed run.
// Implementations must tolerate being called once per engine step on hot
// loops; producers guard calls with a nil check so a nil Sink costs
// nothing.
type Sink interface {
	// Step records one step's time-series sample.
	Step(s StepSample)
	// Span records one completed phase span.
	Span(sp Span)
	// Event records one fault/watchdog event.
	Event(e Event)
	// Run records one analyzed run's terminal summary.
	Run(r RunSummary)
}

// Records holds records grouped by line type, in emission order. It is
// what ReadJSONLRecords parses a metrics stream into and, as a pointer, a
// Sink that appends what it is given, so a test collects records in the
// same type it reads a file back into.
type Records struct {
	Steps  []StepSample
	Spans  []Span
	Events []Event
	Runs   []RunSummary
}

// Step appends the sample.
func (r *Records) Step(s StepSample) { r.Steps = append(r.Steps, s) }

// Span appends the span.
func (r *Records) Span(sp Span) { r.Spans = append(r.Spans, sp) }

// Event appends the event.
func (r *Records) Event(e Event) { r.Events = append(r.Events, e) }

// Run appends the run summary.
func (r *Records) Run(ru RunSummary) { r.Runs = append(r.Runs, ru) }

// Multi fans every record out to each member sink in order.
type Multi []Sink

// Step forwards the sample to every member.
func (m Multi) Step(s StepSample) {
	for _, sink := range m {
		sink.Step(s)
	}
}

// Span forwards the span to every member.
func (m Multi) Span(sp Span) {
	for _, sink := range m {
		sink.Span(sp)
	}
}

// Event forwards the event to every member.
func (m Multi) Event(e Event) {
	for _, sink := range m {
		sink.Event(e)
	}
}

// Run forwards the run summary to every member.
func (m Multi) Run(r RunSummary) {
	for _, sink := range m {
		sink.Run(r)
	}
}
