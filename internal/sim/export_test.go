package sim

import "meshroute/internal/grid"

// NodeMarks reports the engine's per-node flag bits, and whether a packet
// resident at the node carries the departing mark, for the external tests
// of this package.
func NodeMarks(net *Network, id grid.NodeID) (occupied, offered, sent, departing bool) {
	node := net.peek(id)
	if node == nil {
		return false, false, false, false
	}
	for _, p := range net.PacketsOf(node) {
		departing = departing || net.P.departing[p]
	}
	f := node.flags
	return f&nodeOccupied != 0, f&nodeOffered != 0, f&nodeSent != 0, departing
}

// Resident reports the node's resident packets, in FIFO order, and its
// per-tag queue lengths without paging the node in, for the external tests
// of this package.
func Resident(net *Network, id grid.NodeID) (q []PacketID, tagLen [numTags]int) {
	node := net.peek(id)
	if node == nil {
		return nil, tagLen
	}
	for tag := range tagLen {
		tagLen[tag] = net.QueueLen(node, uint8(tag))
	}
	return net.PacketsOf(node), tagLen
}

// Paged reports whether the network holds its node records in pages, and
// how many pages it has allocated, for the external tests of this package.
func Paged(net *Network) (paged bool, pagesIn int) { return net.flat == nil, net.pagesIn }

// ReservedCaps reports the capacities of the step buffers (moves,
// arrivals, next, targets, senders) and of the slot arena, for the
// external tests of this package.
func ReservedCaps(net *Network) [6]int {
	s := &net.scratch
	return [6]int{cap(s.moves), cap(s.arrivals), cap(s.next), cap(s.targets), cap(s.senders), cap(net.slots)}
}

// StoreCaps reports the capacity of the packet store's columns, which
// share one, and of the placement list, for the external tests of this
// package.
func StoreCaps(net *Network) (store, placed int) { return cap(net.P.Src), cap(net.placed) }

// NumQueueTags is the number of queue tags a node's residents can carry,
// for the external tests of this package.
const NumQueueTags = numTags

// WrapSource replaces the attached source, if any, with wrap(source) and
// reports the admission policy, for the external tests of this package:
// the wrapper sees every pull after AttachSource's step-0 one.
func WrapSource(net *Network, wrap func(Source) Source) AdmissionPolicy {
	if net.source != nil {
		net.source = wrap(net.source)
	}
	return net.admit
}

// Backlog reports the packets waiting in the node's admission backlog, in
// FIFO order, for the external tests of this package.
func Backlog(net *Network, id grid.NodeID) []PacketID {
	if net.backlog == nil {
		return nil
	}
	return net.backlog[id][net.backlogHead[id]:]
}

// TimedSource injects the injections listed for each step and is exhausted
// after the last listed step, for the tests of this package.
type TimedSource map[int][]Injection

func (s TimedSource) Next(step int, buf []Injection) []Injection { return append(buf, s[step]...) }

func (s TimedSource) Exhausted(step int) bool {
	for t := range s {
		if t > step {
			return false
		}
	}
	return true
}

// ExchangeHook reports the installed exchange hook, for the external tests
// of this package.
func ExchangeHook(net *Network) ExchangeFn { return net.exchange }
