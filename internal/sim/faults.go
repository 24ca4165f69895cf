package sim

import (
	"meshroute/internal/fault"
	"meshroute/internal/obs"
)

// applyFaults applies every schedule event due at or before step t to the
// live fault state, advancing the cursor. Link failures and node stalls
// are reference-counted so overlapping transient episodes compose;
// permanent link failures are recorded in a separate set that never
// clears. Each applied event is forwarded to the metrics sink (if it
// records events), which is where the deterministic fault-event stream
// documented in docs/ROBUSTNESS.md comes from.
func (net *Network) applyFaults(t int) {
	evs := net.cfg.Faults.Events
	for net.faultCursor < len(evs) && evs[net.faultCursor].Step <= t {
		e := evs[net.faultCursor]
		net.faultCursor++
		switch e.Kind {
		case fault.LinkDown:
			if e.Permanent {
				net.linkPerm[e.Node] = net.linkPerm[e.Node].Set(e.Dir)
			} else {
				net.linkDownCnt[e.Node][e.Dir]++
			}
		case fault.LinkUp:
			if net.linkDownCnt[e.Node][e.Dir] > 0 {
				net.linkDownCnt[e.Node][e.Dir]--
			}
		case fault.NodeStall:
			net.stalledCnt[e.Node]++
		case fault.NodeWake:
			if net.stalledCnt[e.Node] > 0 {
				net.stalledCnt[e.Node]--
			}
		}
		if net.sink != nil {
			oe := obs.Event{Step: e.Step, Kind: e.Kind.String(), Node: int(e.Node)}
			if e.Kind == fault.LinkDown || e.Kind == fault.LinkUp {
				oe.Dir = e.Dir.String()
			}
			if e.Permanent {
				oe.Detail = "permanent"
			}
			net.sink.Event(oe)
		}
	}
}
