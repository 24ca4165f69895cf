package sim

import (
	"fmt"
	"slices"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// StepOnce executes one synchronous step: faults and admission, then the
// five parts of Section 2 — (a) outqueue scheduling, (b) adversary
// exchanges, (c) inqueue acceptance, (d) transmission and (e) state update.
// At steady state (no injections, nil sink) it performs zero heap
// allocations: every per-step buffer lives in stepScratch and is reused
// across steps, and the index-based queue slots never grow once a node's
// region has reached its peak occupancy.
//
// With Config.Watchdog set, the step that completes a full window without a
// delivery emits a "watchdog" event and returns a *LivelockError, whoever
// drives the network.
func (net *Network) StepOnce(alg Algorithm) error {
	if !net.inited {
		net.compactOcc()
		for _, id := range net.occ {
			alg.InitNode(net, &net.nodes[id])
		}
		net.inited = true
	}
	net.step++
	t := net.step
	deliveredBefore := net.delivered

	if net.hasFaults {
		net.applyFaults(t)
	}
	net.injectPending(t)

	// Part (a): outqueue policies schedule packets; the same sweep drops
	// the nodes that have emptied from the occupied list.
	moves, err := net.scheduleNodes(alg)
	if err != nil {
		return err
	}

	// Part (b): the adversary exchanges destination addresses.
	if net.exchange != nil {
		if err := net.exchangeDestinations(moves); err != nil {
			return err
		}
	}

	// Part (c): inqueue policies accept or refuse; each arrival is checked
	// against its sender and marked departing as it is listed.
	arrivals, err := net.acceptOffers(alg, moves)
	if err != nil {
		return err
	}

	// Part (d): simultaneous transmission. Removal strictly precedes
	// insertion, so departures free space for arrivals within the step.
	net.compactSenders()
	net.applyArrivals(arrivals)

	// Part (e): state updates, fused with the end-of-step occupancy scan
	// and the invariant checker (CheckInvariants).
	o, err := net.updateNodes(alg)
	if err != nil {
		return err
	}
	net.Metrics.noteOccupancy(o.maxQueue, o.maxNodeLoad)

	if net.delivered > deliveredBefore {
		net.lastProgress = t
	}
	if net.sink != nil {
		net.emitStepSample(t, arrivals, net.delivered-deliveredBefore, &o)
	}
	if net.observer != nil {
		s := &net.scratch
		recDelivered := s.recDelivered[:0]
		for _, a := range arrivals {
			if net.P.DeliverStep[a.P] == int32(t) {
				recDelivered = append(recDelivered, a.P.ID())
			}
		}
		s.recDelivered = recDelivered
		net.observer(StepRecord{Step: t, Moves: arrivals, Delivered: recDelivered})
	}

	// Livelock watchdog: abort after a full window without a single
	// delivery, with diagnostics, instead of burning the budget.
	if w := net.cfg.Watchdog; w > 0 && t-net.lastProgress >= w && !net.Done() {
		diag := net.CollectDiagnostics()
		net.emitEvent(obs.Event{Step: t, Kind: "watchdog", Node: -1, Detail: diag.String()})
		return &LivelockError{Alg: alg.Name(), Window: w, Diag: diag}
	}
	return nil
}

// scheduleNodes runs part (a) over the occupied nodes: it records each
// node's decision in Node.sched and returns the scheduled moves that
// survive the fault schedule, counting the others as fault drops. Stalled
// nodes are frozen: they schedule nothing (and accept nothing in part (c)).
// The same sweep is the step's compactOcc: it keeps the nonempty nodes on
// the occupied list, in order, and drops the others.
func (net *Network) scheduleNodes(alg Algorithm) ([]Move, error) {
	t := net.step
	st := &net.P
	moves := net.scratch.moves[:0]
	occ, w := net.occ, 0
	for r, id := range occ {
		node := &net.nodes[id]
		node.sched = 0
		if node.qLen == 0 {
			node.flags &^= nodeOccupied
			continue
		}
		occ[w] = id
		w++
		if net.hasFaults {
			if net.stalledCnt[id] > 0 {
				continue
			}
			// Unreachability: a minimal router can never deliver a packet
			// whose every profitable outlink has permanently failed.
			if net.cfg.RequireMinimal {
				if pd := net.linkPerm[id]; pd != 0 {
					for _, p := range net.PacketsOf(node) {
						if prof := st.Prof[p]; prof != 0 && prof&^pd == 0 {
							ue := &UnreachableError{
								PacketID: p.ID(), At: id, Dst: st.Dst[p],
								AtCoord: net.Topo.CoordOf(id), DstCoord: net.Topo.CoordOf(st.Dst[p]),
								Step: t,
							}
							net.emitEvent(obs.Event{Step: t, Kind: "unreachable", Node: int(id), Detail: ue.Error()})
							return nil, net.abortSweep(w, r, ue)
						}
					}
				}
			}
		}
		sched := alg.Schedule(net, node)
		q := net.PacketsOf(node)
		var used [grid.NumDirs]int
		for i := range used {
			used[i] = -1
		}
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			idx := sched[d]
			if idx < 0 {
				continue
			}
			node.sched = node.sched.Set(d)
			if idx >= len(q) {
				return nil, net.abortSweep(w, r, fmt.Errorf("sim: %s scheduled out-of-range packet index %d at node %v",
					alg.Name(), idx, net.Topo.CoordOf(id)))
			}
			for dd := grid.Dir(0); dd < d; dd++ {
				if used[dd] == idx {
					return nil, net.abortSweep(w, r, fmt.Errorf("sim: %s scheduled packet %d on two outlinks at node %v",
						alg.Name(), q[idx].ID(), net.Topo.CoordOf(id)))
				}
			}
			used[d] = idx
			p := q[idx]
			nb, ok := net.Topo.Neighbor(id, d)
			if !ok {
				return nil, net.abortSweep(w, r, fmt.Errorf("sim: %s scheduled packet %d on missing outlink %v of node %v",
					alg.Name(), p.ID(), d, net.Topo.CoordOf(id)))
			}
			if net.cfg.RequireMinimal && !st.Prof[p].Has(d) {
				return nil, net.abortSweep(w, r, fmt.Errorf("sim: %s scheduled non-minimal move of packet %d: %v -> %v toward %v",
					alg.Name(), p.ID(), net.Topo.CoordOf(id), net.Topo.CoordOf(nb), net.Topo.CoordOf(st.Dst[p])))
			}
			if !net.cfg.RequireMinimal && net.cfg.MaxStray > 0 && !net.withinStray(p, nb) {
				return nil, net.abortSweep(w, r, fmt.Errorf("sim: %s moved packet %d more than %d beyond its source-destination rectangle",
					alg.Name(), p.ID(), net.cfg.MaxStray))
			}
			// A legal move onto a failed link is silently dropped: the
			// packet stays put and may retry (or detour) next step.
			if net.hasFaults && !net.LinkUp(id, d) {
				net.Metrics.FaultDrops++
				continue
			}
			moves = append(moves, Move{P: p, From: id, To: nb, Travel: d})
		}
	}
	net.occ = occ[:w]
	net.scratch.moves = moves
	return moves, nil
}

// abortSweep ends a part (a) that fails at occ[r] with w nodes kept, so
// that the occupied list still names every occupied node exactly once.
func (net *Network) abortSweep(w, r int, err error) error {
	net.occ = append(net.occ[:w], net.occ[r+1:]...)
	net.compactOcc()
	return err
}

// exchangeDestinations runs part (b). The hook changes destinations only
// through ExchangeDst, which keeps Prof current, so nothing here walks the
// residents. Exchanges must keep the already scheduled moves legal (they do
// in the paper's constructions; verify here): minimal under RequireMinimal —
// the mover is still at m.From, so its Prof is Profitable(m.From, Dst) — and
// within the new rectangle inflated by MaxStray otherwise.
func (net *Network) exchangeDestinations(moves []Move) error {
	st := &net.P
	net.exchange(net, net.step, moves)
	switch {
	case net.cfg.RequireMinimal:
		for _, m := range moves {
			if !st.Prof[m.P].Has(m.Travel) {
				return fmt.Errorf("sim: exchange made scheduled move of packet %d non-minimal", m.P.ID())
			}
		}
	case net.cfg.MaxStray > 0:
		for _, m := range moves {
			if !net.withinStray(m.P, m.To) {
				return fmt.Errorf("sim: exchange left the scheduled move of packet %d more than %d beyond its source-destination rectangle",
					m.P.ID(), net.cfg.MaxStray)
			}
		}
	}
	return nil
}

// acceptOffers runs part (c) and returns the step's arrivals. Packets
// scheduled into their destination are delivered on arrival and occupy no
// queue space, so they bypass the inqueue policy and lead the list; each
// target's accepted offers follow, target by target. A stalled node
// accepts nothing, not even deliveries: the scheduled packet stays at its
// sender and retries later.
//
// One pass over the moves groups the offers by target without a map: a
// target joins the targets list when first seen, and its offers are linked
// newest-first from Node.offStart through s.next. Its policy sees them
// gathered back into move order in a four-slot buffer, so the target order
// and the offer order match a map-based grouping. Each arrival passes
// depart as it is listed.
func (net *Network) acceptOffers(alg Algorithm, moves []Move) ([]Move, error) {
	s := &net.scratch
	st := &net.P
	arrivals, targets := s.arrivals[:0], s.targets[:0]
	s.senders = s.senders[:0]
	next := slices.Grow(s.next[:0], len(moves))[:len(moves)]
	s.next = next
	for i := range moves {
		m := &moves[i]
		if net.hasFaults && net.stalledCnt[m.To] > 0 {
			net.Metrics.FaultDrops++
			continue
		}
		if m.To == st.Dst[m.P] {
			if !net.depart(m.P, m.From) {
				return nil, net.abortDepartures(m.P, arrivals, targets)
			}
			arrivals = append(arrivals, *m)
			continue
		}
		to := &net.nodes[m.To]
		if to.flags&nodeOffered == 0 {
			to.flags |= nodeOffered
			to.offCount = 0
			targets = append(targets, m.To)
		}
		next[i] = to.offStart // stale for the first offer; never followed
		to.offStart = int32(i)
		to.offCount++
	}
	s.targets = targets
	for _, id := range targets {
		to := &net.nodes[id]
		to.flags &^= nodeOffered
		cnt := int(to.offCount)
		offs, acc := s.offers[:cnt], s.accept[:cnt]
		for j, i := cnt-1, to.offStart; j >= 0; j, i = j-1, next[i] {
			m := &moves[i]
			offs[j] = Offer{P: m.P, From: m.From, Travel: m.Travel}
		}
		clear(acc)
		alg.Accept(net, to, offs, acc)
		for j, ok := range acc {
			if ok {
				o := &offs[j]
				if !net.depart(o.P, o.From) {
					return nil, net.abortDepartures(o.P, arrivals, targets)
				}
				arrivals = append(arrivals, Move{P: o.P, From: o.From, To: id, Travel: o.Travel})
			}
		}
	}
	s.arrivals = arrivals
	return arrivals, nil
}

// depart checks that packet p still sits at src, at the queue position its
// slot names, and if so marks p departing and src sent, listing each sender
// once in s.senders; otherwise it marks nothing and reports false.
func (net *Network) depart(p PacketID, src grid.NodeID) bool {
	st := &net.P
	node := &net.nodes[src]
	if i := uint32(st.slot[p]); st.At[p] != src || i >= node.qLen || net.slots[node.qStart+i] != p {
		return false
	}
	st.departing[p] = true
	if node.flags&nodeSent == 0 {
		node.flags |= nodeSent
		net.scratch.senders = append(net.scratch.senders, src)
	}
	return true
}

// abortDepartures ends a part (c) in which packet p failed depart's check,
// clearing every departing, sent and offered mark so none outlives it.
func (net *Network) abortDepartures(p PacketID, arrivals []Move, targets []grid.NodeID) error {
	for _, a := range arrivals {
		net.P.departing[a.P] = false
	}
	for _, id := range net.scratch.senders {
		net.nodes[id].flags &^= nodeSent
	}
	for _, id := range targets {
		net.nodes[id].flags &^= nodeOffered
	}
	return fmt.Errorf("sim: internal error, packet %d not found at sender", p.ID())
}

// compactSenders starts part (d): it removes departing packets from each
// sender's queue region, preserving FIFO order of the packets that stay, in
// one O(qLen) pass per sender. On a four-inlink network the per-tag count
// decrement reads the departing packet's old QTag, so compaction must
// complete before applyArrivals re-tags any packet.
func (net *Network) compactSenders() {
	st := &net.P
	for _, id := range net.scratch.senders {
		node := &net.nodes[id]
		node.flags &^= nodeSent
		q := net.slots[node.qStart : node.qStart+node.qLen]
		w := uint32(0)
		for _, p := range q {
			if st.departing[p] {
				if net.tagLen != nil {
					net.tagLen[id][st.QTag[p]]--
				}
				continue
			}
			st.slot[p] = int32(w)
			q[w] = p
			w++
		}
		node.qLen = w
	}
}

// applyArrivals applies the arrivals — delivering packets that reached their
// destination and attaching the rest to their new node's queue — and folds
// the step's hops and deliveries into the run metrics.
func (net *Network) applyArrivals(arrivals []Move) {
	st := &net.P
	t := net.step
	delivered, sumDelay := 0, 0
	for _, a := range arrivals {
		p := a.P
		st.departing[p] = false
		st.Hops[p]++
		st.Arrived[p] = a.Travel
		st.ArrivedStep[p] = int32(t)
		if a.To == st.Dst[p] {
			st.At[p] = a.To
			st.DeliverStep[p] = int32(t)
			delivered++
			sumDelay += t - int(st.InjectStep[p])
			continue
		}
		tag := uint8(0)
		if net.Queues == PerInlinkQueues {
			tag = uint8(a.Travel.Opposite())
		}
		net.attach(&net.nodes[a.To], p, tag)
	}
	net.delivered += delivered
	net.Metrics.TotalHops += len(arrivals)
	net.Metrics.noteDeliveredBatch(t, delivered, sumDelay)
}

// occupancy is the end-of-step occupancy summary the part (e) scan
// produces: the maxima the run metrics keep, the counts the conservation
// check and the step sample read, and — only when a metrics sink is
// installed — the queue histogram.
type occupancy struct {
	// maxQueue is the largest single queue (excluding the unbounded origin
	// buffer), maxNodeLoad the largest total node load.
	maxQueue, maxNodeLoad int
	// nodes counts occupied nodes, inFlight their packets, and hist the
	// non-empty queues by size.
	nodes, inFlight int
	hist            obs.QueueHist
}

// updateNodes runs part (e) on the occupied nodes — skipping stalled nodes,
// whose state must stay frozen — fused with the one end-of-step occupancy
// scan, whose summary it returns, and the invariant checker (checkNode).
// Update still runs on nodes that emptied during the step (they held a
// packet at its start, which is the Update contract); the scan skips them.
// The update does not change queue contents, so fusing the three is
// invisible but for the Updates that run before a violation is found.
func (net *Network) updateNodes(alg Algorithm) (o occupancy, err error) {
	sampled := net.sink != nil
	check := net.cfg.CheckInvariants
	maxQueue, maxNodeLoad, inFlight := 0, 0, 0
	for _, id := range net.occ {
		node := &net.nodes[id]
		if check {
			if err := net.checkNode(alg, node); err != nil {
				return o, err
			}
		}
		if node.qLen > 0 {
			l := int(node.qLen)
			maxNodeLoad = max(maxNodeLoad, l)
			inFlight += l
			if net.tagLen == nil {
				// The central queue holds every resident.
				maxQueue = max(maxQueue, l)
				if sampled {
					o.hist[obs.BucketOf(l)]++
				}
			} else {
				// The four inlink queues, tags 0..3; the unbounded origin
				// buffer is not a queue of the model.
				for _, l := range net.tagLen[id][:OriginTag] {
					maxQueue = max(maxQueue, int(l))
					if sampled && l > 0 {
						o.hist[obs.BucketOf(int(l))]++
					}
				}
			}
			o.nodes++
		}
		if net.hasFaults && net.stalledCnt[id] > 0 {
			continue
		}
		alg.Update(net, node)
	}
	o.maxQueue, o.maxNodeLoad, o.inFlight = maxQueue, maxNodeLoad, inFlight
	if check {
		err = net.checkConservation(inFlight)
	}
	return o, err
}

// withinStray reports whether node nb lies within the packet's
// source-destination rectangle inflated by MaxStray.
func (net *Network) withinStray(p PacketID, nb grid.NodeID) bool {
	st := &net.P
	s, d, c := net.Topo.CoordOf(st.Src[p]), net.Topo.CoordOf(st.Dst[p]), net.Topo.CoordOf(nb)
	loX, hiX := s.X, d.X
	if loX > hiX {
		loX, hiX = hiX, loX
	}
	loY, hiY := s.Y, d.Y
	if loY > hiY {
		loY, hiY = hiY, loY
	}
	m := net.cfg.MaxStray
	return c.X >= loX-m && c.X <= hiX+m && c.Y >= loY-m && c.Y <= hiY+m
}

// injectPending moves due injections into per-node backlogs and drains
// backlogs into queues where space permits (FIFO, destination-independent).
// Only nodes on the active-backlog list are visited, so a step on a large
// mesh with little pending work costs O(active nodes), not O(N). The list
// is sorted before draining so nodes drain in ascending id order, exactly
// the order the previous full-scan implementation used.
func (net *Network) injectPending(t int) {
	net.stepOffered, net.stepAdmitted, net.stepRefused, net.stepDropped = 0, 0, 0, 0
	st := &net.P
	if ps, ok := net.pendingInj[t]; ok {
		for _, p := range ps {
			net.toBacklog(st.Src[p], p)
		}
		net.pendingTotal -= len(ps)
		net.stepOffered += len(ps)
		delete(net.pendingInj, t)
	}
	if net.source != nil && !net.srcExhausted {
		net.pullSource(t)
	}
	if len(net.backlogNodes) == 0 {
		net.finishAdmission()
		return
	}
	slices.Sort(net.backlogNodes)
	w := 0
	for _, id := range net.backlogNodes {
		bl := net.backlog[id]
		h := int(net.backlogHead[id])
		if h >= len(bl) {
			net.backlog[id] = bl[:0]
			net.backlogHead[id] = 0
			net.inBacklog[id] = false
			continue
		}
		// A stalled node admits nothing; its backlog waits with it (and
		// stays on the active list).
		if net.hasFaults && net.stalledCnt[id] > 0 {
			net.backlogNodes[w] = id
			w++
			continue
		}
		node := &net.nodes[id]
		for h < len(bl) {
			p := bl[h]
			if st.Src[p] == st.Dst[p] {
				st.At[p] = st.Dst[p]
				st.InjectStep[p] = int32(t)
				st.DeliverStep[p] = int32(t)
				net.delivered++
				net.Metrics.noteDelivered(t, t)
				h++
				net.backlogTotal--
				net.stepAdmitted++
				continue
			}
			var tag uint8
			if net.Queues == PerInlinkQueues {
				tag = OriginTag
			} else {
				tag = 0
				if int(node.qLen) >= net.K {
					break
				}
			}
			st.InjectStep[p] = int32(t)
			net.attach(node, p, tag)
			h++
			net.backlogTotal--
			net.stepAdmitted++
		}
		if h >= len(bl) {
			// Fully drained: reset to the slice's base so the retained
			// capacity is reused by the next refill without allocating.
			net.backlog[id] = bl[:0]
			net.backlogHead[id] = 0
			net.inBacklog[id] = false
			continue
		}
		// Partially drained: once the dead prefix dominates, compact in
		// place so a long-lived backlog's memory stays proportional to its
		// live residue rather than its cumulative history.
		if h >= 64 && 2*h >= len(bl) {
			n := copy(bl, bl[h:])
			net.backlog[id] = bl[:n]
			h = 0
		}
		net.backlogHead[id] = int32(h)
		net.backlogNodes[w] = id
		w++
	}
	net.backlogNodes = net.backlogNodes[:w]
	net.finishAdmission()
}

// finishAdmission closes the injection phase's books: every packet still in
// a backlog was refused admission this step (the retry policy's per-step
// refusal), dropped offers were refused terminally, and the step counters
// fold into the run totals. The step counters stay live for emitStepSample.
func (net *Network) finishAdmission() {
	net.stepRefused = net.stepDropped + net.backlogTotal
	m := &net.Metrics
	m.Offered += net.stepOffered
	m.Admitted += net.stepAdmitted
	m.Refused += net.stepRefused
	m.Dropped += net.stepDropped
}

// compactOcc drops empty nodes from the occupied list, as part (a) does.
func (net *Network) compactOcc() {
	w := 0
	for _, id := range net.occ {
		node := &net.nodes[id]
		if node.qLen > 0 {
			net.occ[w] = id
			w++
		} else {
			node.flags &^= nodeOccupied
			node.sched = 0 // off the list, so part (a) will not reset it
		}
	}
	net.occ = net.occ[:w]
}

// Occupied returns the identifiers of nodes currently holding packets, in
// deterministic (not sorted) order. The returned slice is owned by the
// engine; do not modify it.
func (net *Network) Occupied() []grid.NodeID {
	net.compactOcc()
	return net.occ
}
