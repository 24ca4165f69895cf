package obs

import "sync"

// Counters is a concurrency-safe aggregate Sink: where Records keeps every
// record, Counters folds each sample, span, event and run summary into one
// Totals behind a mutex. One Counters value can be shared by many
// concurrent runs (it is the operational-metrics feed of the simulation
// service, which attaches it to every job alongside the job's own stream),
// and a snapshot is consistent across fields. The zero value is ready to
// use.
type Counters struct {
	mu sync.Mutex
	t  Totals
}

// Step folds one step sample into the totals.
func (c *Counters) Step(s StepSample) {
	c.Add(Totals{Steps: 1, Moves: int64(s.Moves), Delivered: int64(s.Delivered),
		Offered: int64(s.Offered), Admitted: int64(s.Admitted), Refused: int64(s.Refused)})
}

// Span counts one phase span.
func (c *Counters) Span(Span) { c.Add(Totals{Spans: 1}) }

// Event counts one fault/watchdog event.
func (c *Counters) Event(Event) { c.Add(Totals{Events: 1}) }

// Run folds one analyzed run's terminal summary into the totals.
func (c *Counters) Run(r RunSummary) {
	c.Add(Totals{Runs: 1, RunMakespan: int64(r.Makespan), RunCD: int64(r.Congestion + r.Dilation)})
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
	// sums behind CDRatio. They are summed separately so the fleet-wide
	// ratio is sum(makespan)/sum(C+D), the C+D-weighted mean of the
	// per-run ratios, stable under mixed run sizes.
	Runs        int64 `json:"runs,omitempty"`
	RunMakespan int64 `json:"run_makespan,omitempty"`
	RunCD       int64 `json:"run_cd,omitempty"`
}

// Totals snapshots the counters.
func (c *Counters) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Add folds a snapshot taken elsewhere into the totals, field by field.
// Safe to call concurrently with producers and with other Adds.
func (c *Counters) Add(t Totals) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t.Steps += t.Steps
	c.t.Moves += t.Moves
	c.t.Delivered += t.Delivered
	c.t.Offered += t.Offered
	c.t.Admitted += t.Admitted
	c.t.Refused += t.Refused
	c.t.Spans += t.Spans
	c.t.Events += t.Events
	c.t.Runs += t.Runs
	c.t.RunMakespan += t.RunMakespan
	c.t.RunCD += t.RunCD
}

// CDRatio returns the aggregate efficiency ratio over all analyzed runs,
// sum(makespan)/sum(C+D), or 0 when no analyzed run has been observed.
func (t Totals) CDRatio() float64 {
	if t.RunCD == 0 {
		return 0
	}
	return float64(t.RunMakespan) / float64(t.RunCD)
}
