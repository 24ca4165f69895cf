package obs

import "sync/atomic"

// Counters is a concurrency-safe aggregate Sink: instead of retaining
// records like Memory, it folds every sample, span and event into a
// handful of atomic totals. One Counters value can be shared by many
// concurrent runs (it is the operational-metrics feed of the simulation
// service, which attaches it to every job alongside the job's own stream),
// and reading a total never blocks a producer.
type Counters struct {
	steps     atomic.Int64
	moves     atomic.Int64
	delivered atomic.Int64
	offered   atomic.Int64
	admitted  atomic.Int64
	refused   atomic.Int64
	spans     atomic.Int64
	events    atomic.Int64
	// Analyzed-run aggregates: per-run makespans and C+D totals are
	// summed separately so the fleet-wide efficiency ratio can be
	// reported as sum(makespan)/sum(C+D) — the C+D-weighted mean of the
	// per-run ratios, stable under mixed run sizes.
	runs        atomic.Int64
	runMakespan atomic.Int64
	runCD       atomic.Int64
}

// Step folds one step sample into the totals.
func (c *Counters) Step(s StepSample) {
	c.steps.Add(1)
	c.moves.Add(int64(s.Moves))
	c.delivered.Add(int64(s.Delivered))
	if s.Offered != 0 {
		c.offered.Add(int64(s.Offered))
	}
	if s.Admitted != 0 {
		c.admitted.Add(int64(s.Admitted))
	}
	if s.Refused != 0 {
		c.refused.Add(int64(s.Refused))
	}
}

// Span counts one phase span.
func (c *Counters) Span(Span) { c.spans.Add(1) }

// Event counts one fault/watchdog event.
func (c *Counters) Event(Event) { c.events.Add(1) }

// Run folds one analyzed run's terminal summary into the totals.
func (c *Counters) Run(r RunSummary) {
	c.runs.Add(1)
	c.runMakespan.Add(int64(r.Makespan))
	c.runCD.Add(int64(r.Congestion + r.Dilation))
}

// Totals is a snapshot of a Counters value: what one run (or any set of
// runs) added to it, in a form that crosses a wire. A fleet worker counts
// each cell into a Counters of its own and sends the Totals on the cell's
// result line; the coordinator adds them to its shared Counters, which then
// reads exactly as if the cell had run there.
type Totals struct {
	Steps     int64 `json:"steps,omitempty"`
	Moves     int64 `json:"moves,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	Offered   int64 `json:"offered,omitempty"`
	Admitted  int64 `json:"admitted,omitempty"`
	Refused   int64 `json:"refused,omitempty"`
	Spans     int64 `json:"spans,omitempty"`
	Events    int64 `json:"events,omitempty"`
	// Runs counts analyzed-run summaries; RunMakespan and RunCD are the
	// sums behind CDRatio.
	Runs        int64 `json:"runs,omitempty"`
	RunMakespan int64 `json:"run_makespan,omitempty"`
	RunCD       int64 `json:"run_cd,omitempty"`
}

// Totals snapshots the counters. Each field is read atomically; taken while
// producers are still running, the fields may be from different instants.
func (c *Counters) Totals() Totals {
	return Totals{
		Steps:       c.steps.Load(),
		Moves:       c.moves.Load(),
		Delivered:   c.delivered.Load(),
		Offered:     c.offered.Load(),
		Admitted:    c.admitted.Load(),
		Refused:     c.refused.Load(),
		Spans:       c.spans.Load(),
		Events:      c.events.Load(),
		Runs:        c.runs.Load(),
		RunMakespan: c.runMakespan.Load(),
		RunCD:       c.runCD.Load(),
	}
}

// Add folds a snapshot taken elsewhere into the totals. Safe to call
// concurrently with producers and with other Adds.
func (c *Counters) Add(t Totals) {
	c.steps.Add(t.Steps)
	c.moves.Add(t.Moves)
	c.delivered.Add(t.Delivered)
	c.offered.Add(t.Offered)
	c.admitted.Add(t.Admitted)
	c.refused.Add(t.Refused)
	c.spans.Add(t.Spans)
	c.events.Add(t.Events)
	c.runs.Add(t.Runs)
	c.runMakespan.Add(t.RunMakespan)
	c.runCD.Add(t.RunCD)
}

// CDRatio returns the aggregate efficiency ratio over all analyzed runs,
// sum(makespan)/sum(C+D), or 0 when no analyzed run has been observed.
func (t Totals) CDRatio() float64 {
	if t.RunCD == 0 {
		return 0
	}
	return float64(t.RunMakespan) / float64(t.RunCD)
}
