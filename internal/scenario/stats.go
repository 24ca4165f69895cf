package scenario

// RouteStats summarizes one routing run. Its JSON form is the wire form
// of the service API and the fleet cell protocol; the fields added for
// online and analyzed runs are omitted when zero, so a static run's bytes
// carry only the first eight.
type RouteStats struct {
	// Makespan is the delivery step of the last packet.
	Makespan int `json:"makespan"`
	// Steps is the number of steps executed (>= Makespan; larger only
	// if the run was truncated).
	Steps int `json:"steps"`
	// Done reports whether every packet was delivered.
	Done bool `json:"done"`
	// Delivered and Total count packets.
	Delivered int `json:"delivered"`
	Total     int `json:"total"`
	// MaxQueue is the peak end-of-step occupancy of any single queue.
	MaxQueue int `json:"max_queue"`
	// AvgDelay is the mean delivery delay.
	AvgDelay float64 `json:"avg_delay"`
	// FaultDrops counts moves dropped on failed links or into stalled
	// nodes (0 without fault injection).
	FaultDrops int `json:"fault_drops"`

	// Online reports an open workload: a streaming source injecting past
	// step 0, for which the admission and throughput fields below are
	// meaningful (they stay zero on static one-shot runs).
	Online bool `json:"online,omitempty"`
	// Offered counts distinct injection requests presented to admission;
	// Admitted those that entered the network; Refused the refusal events
	// (per-step backlog waits plus drops), so the per-attempt refusal rate
	// is Refused/(Admitted+Refused); Dropped the offers discarded
	// terminally under the drop policy.
	Offered  int `json:"offered,omitempty"`
	Admitted int `json:"admitted,omitempty"`
	Refused  int `json:"refused,omitempty"`
	Dropped  int `json:"dropped,omitempty"`
	// Throughput is the delivered-per-step rate over the whole run.
	Throughput float64 `json:"throughput,omitempty"`
	// DelayP50, DelayP95 and DelayP99 are time-in-system percentiles
	// (delivery step minus injection step) over delivered packets.
	DelayP50 float64 `json:"delay_p50,omitempty"`
	DelayP95 float64 `json:"delay_p95,omitempty"`
	DelayP99 float64 `json:"delay_p99,omitempty"`

	// Efficiency block (scenario knob "analysis": true). Analyzed reports
	// that the run computed its congestion+dilation yardstick; the fields
	// below stay zero otherwise. Congestion is the maximum number of
	// minimal paths sharing one directed edge in the analyzed path system
	// (static workloads: canonical dimension-order plus a greedy
	// congestion-lowering pass; online workloads: canonical paths accrued
	// at admission time), Dilation the longest path length, and CDRatio
	// the theory-grounded efficiency ratio Makespan/(C+D) — Θ(1) for any
	// near-optimal schedule by Rothvoß's O(congestion+dilation) bound.
	Analyzed bool `json:"analyzed,omitempty"`
	// Congestion and Dilation are the analyzed C and D.
	Congestion int `json:"congestion,omitempty"`
	Dilation   int `json:"dilation,omitempty"`
	// CDRatio is Makespan/(Congestion+Dilation), 0 for an empty workload.
	CDRatio float64 `json:"cd_ratio,omitempty"`
}

// RefusalRate returns Refused/(Admitted+Refused), the fraction of
// admission attempts refused, or 0 when there were none.
func (s RouteStats) RefusalRate() float64 {
	if s.Admitted+s.Refused == 0 {
		return 0
	}
	return float64(s.Refused) / float64(s.Admitted+s.Refused)
}
