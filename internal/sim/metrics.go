package sim

import "meshroute/internal/obs"

// Metrics accumulates run statistics: makespan, delays, hop counts, and
// peak queue occupancy (the quantity bounded by k in the paper's model and
// by the constants of Lemma 28 in the Section 6 algorithm).
type Metrics struct {
	// Makespan is the step at which the last packet (so far) was
	// delivered.
	Makespan int
	// TotalHops is the total number of link traversals by delivered and
	// in-flight packets.
	TotalHops int
	// SumDelay is the sum over delivered packets of delivery step minus
	// injection step.
	SumDelay int
	// MaxQueueLen is the maximum end-of-step occupancy of any single
	// queue (excluding the unbounded origin buffer).
	MaxQueueLen int
	// MaxNodeLoad is the maximum end-of-step number of packets in any
	// node, including the origin buffer.
	MaxNodeLoad int
	// FaultDrops counts scheduled moves the engine dropped because the
	// link was down or the target node stalled (0 without faults).
	FaultDrops int

	// Admission accounting (nonzero only for streamed/queued injection).
	// Offered counts distinct injection requests presented to the
	// admission phase; Admitted counts those that entered a queue (or were
	// delivered in place); Refused counts refusal events — one per step a
	// packet waits in a backlog under the retry policy, one per discarded
	// offer under the drop policy — so Refused/(Admitted+Refused) is the
	// per-attempt refusal rate; Dropped counts offers discarded under the
	// drop policy (a subset of Refused, and never materialized).
	Offered  int
	Admitted int
	Refused  int
	Dropped  int
}

func (m *Metrics) noteDelivered(injectStep, step int) {
	if step > m.Makespan {
		m.Makespan = step
	}
	m.SumDelay += step - injectStep
}

// noteDeliveredBatch folds a whole step's deliveries into the metrics at
// once: the part (d) apply counts deliveries and sums their delays
// locally, and commits the batch here.
// Equivalent to count noteDelivered calls with this step number.
func (m *Metrics) noteDeliveredBatch(step, count, sumDelay int) {
	if count == 0 {
		return
	}
	if step > m.Makespan {
		m.Makespan = step
	}
	m.SumDelay += sumDelay
}

// noteOccupancy folds one end-of-step occupancy maxima observation (from
// the part (e) scan) into the run maxima.
func (m *Metrics) noteOccupancy(maxQueue, maxNodeLoad int) {
	if maxQueue > m.MaxQueueLen {
		m.MaxQueueLen = maxQueue
	}
	if maxNodeLoad > m.MaxNodeLoad {
		m.MaxNodeLoad = maxNodeLoad
	}
}

// emitStepSample builds the end-of-step obs.StepSample from the step's
// arrivals and the part (e) occupancy summary and feeds it to the installed
// metrics sink. A sink pays for what it samples, once: the occupied nodes
// were walked by updateNodes, so this costs O(arrivals) for LinkUse. Only
// called when a sink is installed; the sample is a stack value, so the
// disabled path (nil sink) costs one branch in StepOnce.
func (net *Network) emitStepSample(step int, arrivals []Move, delivered int, o *occupancy) {
	s := obs.StepSample{
		Step:           step,
		Moves:          len(arrivals),
		Delivered:      delivered,
		DeliveredTotal: net.delivered,
		InFlight:       o.inFlight,
		OccupiedNodes:  o.nodes,
		MaxQueue:       o.maxQueue,
		QueueHist:      o.hist,
		Offered:        net.stepOffered,
		Admitted:       net.stepAdmitted,
		Refused:        net.stepRefused,
		Backlog:        net.backlogTotal,
	}
	for _, a := range arrivals {
		s.LinkUse[a.Travel]++
	}
	net.sink.Step(s)
}

// AvgDelay returns the mean delivery delay over delivered packets, or 0.
func (net *Network) AvgDelay() float64 {
	if net.delivered == 0 {
		return 0
	}
	return float64(net.Metrics.SumDelay) / float64(net.delivered)
}
