package sim

import (
	"fmt"
	"sort"
	"strings"

	"meshroute/internal/grid"
)

// QueueDiag describes one hot queue in a run diagnostic.
type QueueDiag struct {
	// Node is the queue's node.
	Node grid.NodeID
	// Coord is the node's coordinate.
	Coord grid.Coord
	// Tag is the queue tag (0 for the central queue; an inlink index or
	// OriginTag under the per-inlink model).
	Tag uint8
	// Len is the end-of-run occupancy.
	Len int
}

// maxDiagQueues bounds how many hot queues a diagnostic reports.
const maxDiagQueues = 8

// Diagnostics is the structured state snapshot attached to the
// livelock-watchdog and cancellation errors, so a failed run reports *why*
// it failed instead of only that it did.
type Diagnostics struct {
	// Step is the step at which the run gave up.
	Step int
	// Undelivered is the number of packets not yet delivered (including
	// packets still waiting in injection backlogs).
	Undelivered int
	// LastProgressStep is the last step at which a packet was delivered
	// (0 if none ever was).
	LastProgressStep int
	// StalledSteps is Step - LastProgressStep: how long the run went
	// without progress before aborting.
	StalledSteps int
	// TopQueues lists the hottest queues (highest end-of-run occupancy),
	// at most maxDiagQueues of them, hottest first.
	TopQueues []QueueDiag
	// FaultDrops is the cumulative number of scheduled moves the engine
	// dropped on failed links or into stalled nodes (0 without faults).
	FaultDrops int
}

// String renders a one-line summary (the long form is the struct itself).
func (d Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "undelivered=%d, last progress at step %d (%d steps without progress)",
		d.Undelivered, d.LastProgressStep, d.StalledSteps)
	if d.FaultDrops > 0 {
		fmt.Fprintf(&b, ", %d moves dropped by faults", d.FaultDrops)
	}
	if len(d.TopQueues) > 0 {
		b.WriteString("; hottest queues:")
		for _, q := range d.TopQueues {
			fmt.Fprintf(&b, " %v/q%d=%d", q.Coord, q.Tag, q.Len)
		}
	}
	return b.String()
}

// CollectDiagnostics snapshots the current run state: undelivered count,
// last-progress step, and the hottest queues. It is called by the engine
// when a run aborts, and exported so CLIs can report on partial runs.
func (net *Network) CollectDiagnostics() Diagnostics {
	d := Diagnostics{
		Step:             net.step,
		Undelivered:      net.total - net.delivered,
		LastProgressStep: net.lastProgress,
		StalledSteps:     net.step - net.lastProgress,
		FaultDrops:       net.Metrics.FaultDrops,
	}
	for _, id := range net.occ {
		node := net.node(id)
		for tag := uint8(0); tag < numTags; tag++ {
			if c := net.QueueLen(node, tag); c > 0 {
				d.TopQueues = append(d.TopQueues, QueueDiag{
					Node: id, Coord: net.Topo.CoordOf(id), Tag: tag, Len: c,
				})
			}
		}
	}
	sort.Slice(d.TopQueues, func(i, j int) bool {
		if d.TopQueues[i].Len != d.TopQueues[j].Len {
			return d.TopQueues[i].Len > d.TopQueues[j].Len
		}
		return d.TopQueues[i].Node < d.TopQueues[j].Node
	})
	if len(d.TopQueues) > maxDiagQueues {
		d.TopQueues = d.TopQueues[:maxDiagQueues]
	}
	return d
}

// LivelockError reports that the livelock watchdog saw no delivery for a
// full no-progress window and aborted the run early (instead of burning
// the rest of the step budget).
type LivelockError struct {
	// Alg is the routing algorithm's name.
	Alg string
	// Window is the configured no-progress window, in steps.
	Window int
	// Diag is the abort-time state snapshot.
	Diag Diagnostics
}

// Error implements error.
func (e *LivelockError) Error() string {
	return fmt.Sprintf("sim: watchdog: %s made no progress for %d steps (aborted at step %d): %s",
		e.Alg, e.Window, e.Diag.Step, e.Diag)
}

// CanceledError reports that Run was canceled by its context between
// steps. It carries the same structured diagnostics as the watchdog abort,
// so callers can report partial progress, and unwraps to the context's
// error (context.Canceled or context.DeadlineExceeded).
type CanceledError struct {
	// Alg is the routing algorithm's name.
	Alg string
	// Steps is the number of steps executed before cancellation.
	Steps int
	// Cause is the context's error.
	Cause error
	// Diag is the cancellation-time state snapshot.
	Diag Diagnostics
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: %s canceled after %d steps: %v: %s", e.Alg, e.Steps, e.Cause, e.Diag)
}

// Unwrap exposes the context error for errors.Is.
func (e *CanceledError) Unwrap() error { return e.Cause }

// UnreachableError reports that a packet's destination became unreachable
// for a minimal router: every profitable outlink at the packet's current
// node has permanently failed, so no sequence of shortest-path moves can
// deliver it. Only raised when faults are enabled and the configuration
// requires minimality.
type UnreachableError struct {
	// PacketID is the stranded packet.
	PacketID int32
	// At is the node holding the packet; Dst its destination.
	At, Dst grid.NodeID
	// AtCoord and DstCoord are the corresponding coordinates.
	AtCoord, DstCoord grid.Coord
	// Step is the step at which the engine detected the condition.
	Step int
}

// Error implements error.
func (e *UnreachableError) Error() string {
	return fmt.Sprintf("sim: packet %d at %v cannot reach %v minimally: every profitable outlink has permanently failed (step %d)",
		e.PacketID, e.AtCoord, e.DstCoord, e.Step)
}
