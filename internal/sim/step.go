package sim

import (
	"context"
	"fmt"
	"math"
	"slices"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// Run executes steps until every packet is delivered or maxSteps is
// exhausted, returning the number of steps executed in this call. It is an
// error to exceed maxSteps with undelivered packets unless allowPartial.
func (net *Network) Run(alg Algorithm, maxSteps int) (int, error) {
	return net.run(nil, alg, maxSteps, false)
}

// RunPartial executes up to maxSteps steps, stopping early if all packets
// are delivered; unlike Run it does not treat hitting the step limit as an
// error. It returns the number of steps executed in this call.
func (net *Network) RunPartial(alg Algorithm, maxSteps int) (int, error) {
	return net.run(nil, alg, maxSteps, true)
}

// RunContext is Run with cooperative cancellation: the context is checked
// between steps, and a canceled run returns a *CanceledError carrying
// partial-progress diagnostics. A nil or background context never cancels.
func (net *Network) RunContext(ctx context.Context, alg Algorithm, maxSteps int) (int, error) {
	return net.run(ctx, alg, maxSteps, false)
}

// RunPartialContext is RunPartial with cooperative cancellation checked
// between steps (see RunContext).
func (net *Network) RunPartialContext(ctx context.Context, alg Algorithm, maxSteps int) (int, error) {
	return net.run(ctx, alg, maxSteps, true)
}

func (net *Network) run(ctx context.Context, alg Algorithm, maxSteps int, allowPartial bool) (int, error) {
	// Stop the persistent worker pool (if one was spawned) when this run
	// returns, so no goroutines outlive a Run call; the pool respawns
	// lazily if the network is stepped or run again.
	defer net.stopPool()
	start := net.step
	if net.lastProgress < start {
		net.lastProgress = start
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	for !net.Done() {
		if net.step-start >= maxSteps {
			if allowPartial {
				return net.step - start, nil
			}
			return net.step - start, &StepLimitError{
				Alg: alg.Name(), MaxSteps: maxSteps,
				Delivered: net.delivered, Total: net.total,
				Diag: net.CollectDiagnostics(),
			}
		}
		if cancel != nil {
			select {
			case <-cancel:
				return net.step - start, &CanceledError{
					Alg: alg.Name(), Steps: net.step - start,
					Cause: ctx.Err(), Diag: net.CollectDiagnostics(),
				}
			default:
			}
		}
		if err := net.StepOnce(alg); err != nil {
			return net.step - start, err
		}
		// Livelock watchdog: abort after a full window without a single
		// delivery, with diagnostics, instead of burning the budget.
		if w := net.cfg.Watchdog; w > 0 && net.step-net.lastProgress >= w && !net.Done() {
			diag := net.CollectDiagnostics()
			net.emitEvent(obs.Event{Step: net.step, Kind: "watchdog", Node: -1, Detail: diag.String()})
			return net.step - start, &LivelockError{Alg: alg.Name(), Window: w, Diag: diag}
		}
	}
	return net.step - start, nil
}

// StepOnce executes one synchronous step: outqueue scheduling, adversary
// exchanges, inqueue acceptance, transmission, and state update. At steady
// state (no injections, nil sink) it performs zero heap allocations — at
// any worker count: every per-step buffer lives in stepScratch or a
// worker's workerScratch and is reused across steps, the persistent
// worker pool (pipeline.go) is released through reusable channel
// barriers, and the index-based queue slots never grow once a node's
// region has reached its peak occupancy.
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
	net.compactOcc()

	s := &net.scratch
	st := &net.P
	s.bumpStamp()

	// Part (a): outqueue policies schedule packets. Stalled nodes are
	// frozen: they schedule nothing (and below, accept nothing). With
	// Workers > 1 and a ParallelCloner algorithm, the persistent pool
	// schedules contiguous shards of the occupied list concurrently and
	// the per-worker move buffers are merged in shard order, which
	// reproduces the serial move order exactly.
	var (
		moves []Move
		drops int
		err   error
	)
	clones := net.workerClones(alg)
	if clones == nil {
		moves, drops, err = net.scheduleNodes(alg, net.occ, s.moves[:0])
	} else {
		resident := net.total - net.delivered - net.backlogTotal - net.pendingTotal
		balanceBounds(s.occBounds, len(net.occ), resident, len(clones), func(i int) int {
			return int(net.nodes[net.occ[i]].qLen)
		})
		net.pool.run(net, phaseSchedule)
		moves = s.moves[:0]
		for i := range net.ws {
			ws := &net.ws[i]
			if err == nil {
				err = ws.err
			}
			moves = append(moves, ws.moves...)
			drops += ws.drops
		}
	}
	net.Metrics.FaultDrops += drops
	s.moves = moves
	if err != nil {
		if ue, ok := err.(*UnreachableError); ok {
			net.emitEvent(obs.Event{Step: t, Kind: "unreachable", Node: int(ue.At), Detail: ue.Error()})
		}
		return err
	}

	// Part (b): adversary exchanges destination addresses. The hook writes
	// only P.Dst, so every resident's cached profitable set is recomputed
	// before anything (offers, the next Schedule) reads it again.
	if net.exchange != nil {
		net.exchange(net, t, moves)
		for _, id := range net.occ {
			for _, p := range net.PacketsOf(&net.nodes[id]) {
				st.Prof[p] = net.Topo.Profitable(id, st.Dst[p])
			}
		}
		if net.cfg.RequireMinimal {
			// Exchanges must preserve minimality of the already
			// scheduled moves (they do in the paper's construction;
			// verify here).
			for _, m := range moves {
				if !net.Topo.Profitable(m.From, st.Dst[m.P]).Has(m.Travel) {
					return fmt.Errorf("sim: exchange made scheduled move of packet %d non-minimal", m.P.ID())
				}
			}
		}
	}

	// Part (c): inqueue policies accept or refuse. Packets scheduled into
	// their destination are delivered on arrival and occupy no queue
	// space, so they bypass the inqueue policy.
	//
	// Offers are grouped by target with a dense two-pass index instead of a
	// map: pass 1 counts offers per target (and collects targets in
	// first-seen order), a prefix sum assigns each target a contiguous
	// region of the flat offers slice, and pass 2 fills the regions in move
	// order — so both the target order and the per-target offer order match
	// the map-based grouping this replaces.
	arrivals := s.arrivals[:0]
	targets := s.targets[:0]
	nOffers := 0
	for i := range moves {
		m := &moves[i]
		// A stalled node accepts nothing — not even deliveries. The
		// scheduled packet stays at its sender and retries later.
		if net.hasFaults && net.stalledCnt[m.To] > 0 {
			net.Metrics.FaultDrops++
			continue
		}
		if m.To == st.Dst[m.P] {
			arrivals = append(arrivals, *m)
			continue
		}
		if s.offMark[m.To] != s.stamp {
			s.offMark[m.To] = s.stamp
			s.offCount[m.To] = 0
			targets = append(targets, m.To)
		}
		s.offCount[m.To]++
		nOffers++
	}
	s.targets = targets
	var pos int32
	for _, to := range targets {
		s.offStart[to] = pos
		pos += s.offCount[to]
	}
	if cap(s.offers) < nOffers {
		s.offers = make([]Offer, nOffers)
	}
	offers := s.offers[:nOffers]
	s.offers = offers
	for i := range moves {
		m := &moves[i]
		if net.hasFaults && net.stalledCnt[m.To] > 0 {
			continue
		}
		if m.To == st.Dst[m.P] {
			continue
		}
		offers[s.offStart[m.To]] = Offer{P: m.P, From: m.From, Travel: m.Travel}
		s.offStart[m.To]++
	}
	// Accept dispatch: each target's inqueue policy sees its contiguous
	// offer region. With workers, the target list is sharded across the
	// pool (inqueue policies are target-node-local per the ParallelCloner
	// contract) and the per-worker arrival buffers are merged in shard
	// order — the serial arrival order, target by target.
	s.nDeliv = len(arrivals)
	if clones == nil {
		arrivals = net.acceptTargets(alg, targets, &s.accept, arrivals)
	} else {
		s.arrivals = arrivals
		balanceBounds(s.tgtBounds, len(targets), nOffers, len(clones), func(i int) int {
			return int(s.offCount[targets[i]])
		})
		net.pool.run(net, phaseAccept)
		for i := range net.ws {
			arrivals = append(arrivals, net.ws[i].arrivals...)
		}
	}
	s.arrivals = arrivals

	// Part (d): simultaneous transmission, as two owner-computes halves.
	// First every mover is located at its sender in O(1) via its
	// engine-maintained slot index and marked departing (markDepartures,
	// serial — it also deduplicates the sender list). Then each distinct
	// sender's queue region is compacted once, order-preserving
	// (sender-owner; P3 when parallel), and finally the arrivals are
	// applied — deliveries and attaches (target-owner; P4 when parallel,
	// with queue regions pre-grown in between so attach never touches the
	// shared arena). Removal strictly precedes insertion, so departures
	// free space for arrivals within the step.
	if err := net.markDepartures(arrivals); err != nil {
		return err
	}
	if clones == nil {
		net.compactSenders(s.senders)
		d, sd, h := net.applyArrivals(arrivals, &net.occ)
		net.delivered += d
		net.Metrics.TotalHops += h
		net.Metrics.noteDeliveredBatch(t, d, sd)
	} else {
		net.pool.run(net, phaseCompact)
		net.growForArrivals()
		net.pool.run(net, phaseApply)
		var d, sd, h int
		for i := range net.ws {
			ws := &net.ws[i]
			d += ws.delivered
			sd += ws.sumDelay
			h += ws.hops
			net.occ = append(net.occ, ws.newOcc...)
		}
		net.delivered += d
		net.Metrics.TotalHops += h
		net.Metrics.noteDeliveredBatch(t, d, sd)
	}

	// Runtime invariant checker: queue capacity, count consistency and
	// packet conservation (CheckInvariants). Minimality was already
	// enforced at scheduling time.
	if net.cfg.CheckInvariants {
		if err := net.checkStepInvariants(alg); err != nil {
			return err
		}
	}

	// Part (e): state updates on every node that held packets this step,
	// fused with the one end-of-step occupancy scan (the update does not
	// change queue contents, so fusing is invisible). Stalled
	// nodes stay frozen: their state must not advance. Updates are
	// node-local for ParallelCloner algorithms, so sharding them changes
	// no observable state relative to the serial loop; the per-worker
	// summaries merge under max and sum, which are order-insensitive.
	var o occupancy
	if clones == nil {
		o = net.updateNodes(alg, net.occ)
	} else {
		net.pool.run(net, phaseUpdate)
		for i := range net.ws {
			o.merge(&net.ws[i].occ)
		}
	}
	net.Metrics.noteOccupancy(o.maxQueue, o.maxNodeLoad)

	if net.delivered > deliveredBefore {
		net.lastProgress = t
	}

	if net.sink != nil {
		net.emitStepSample(t, arrivals, net.delivered-deliveredBefore, &o)
	}

	if net.observer != nil {
		recDelivered := s.recDelivered[:0]
		for _, a := range arrivals {
			if st.DeliverStep[a.P] == int32(t) {
				recDelivered = append(recDelivered, a.P.ID())
			}
		}
		s.recDelivered = recDelivered
		net.observer(StepRecord{Step: t, Moves: arrivals, Delivered: recDelivered})
	}
	return nil
}

// scheduleNodes runs part (a) for the given occupied nodes, appending the
// scheduled (and fault-surviving) moves to dst and recording each node's
// decision in Node.sched. It returns the moves, the number of fault drops,
// and the first scheduling error. It mutates only the given nodes (through
// alg.Schedule) and dst, treating all other network state as read-only, so
// disjoint shards may run concurrently.
func (net *Network) scheduleNodes(alg Algorithm, ids []grid.NodeID, dst []Move) ([]Move, int, error) {
	t := net.step
	st := &net.P
	drops := 0
	for _, id := range ids {
		node := &net.nodes[id]
		node.sched = 0
		if node.qLen == 0 {
			continue
		}
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
							return dst, drops, &UnreachableError{
								PacketID: p.ID(), At: id, Dst: st.Dst[p],
								AtCoord: net.Topo.CoordOf(id), DstCoord: net.Topo.CoordOf(st.Dst[p]),
								Step: t,
							}
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
				return dst, drops, fmt.Errorf("sim: %s scheduled out-of-range packet index %d at node %v",
					alg.Name(), idx, net.Topo.CoordOf(id))
			}
			for dd := grid.Dir(0); dd < d; dd++ {
				if used[dd] == idx {
					return dst, drops, fmt.Errorf("sim: %s scheduled packet %d on two outlinks at node %v",
						alg.Name(), q[idx].ID(), net.Topo.CoordOf(id))
				}
			}
			used[d] = idx
			p := q[idx]
			nb, ok := net.Topo.Neighbor(id, d)
			if !ok {
				return dst, drops, fmt.Errorf("sim: %s scheduled packet %d on missing outlink %v of node %v",
					alg.Name(), p.ID(), d, net.Topo.CoordOf(id))
			}
			if net.cfg.RequireMinimal && !st.Prof[p].Has(d) {
				return dst, drops, fmt.Errorf("sim: %s scheduled non-minimal move of packet %d: %v -> %v toward %v",
					alg.Name(), p.ID(), net.Topo.CoordOf(id), net.Topo.CoordOf(nb), net.Topo.CoordOf(st.Dst[p]))
			}
			if !net.cfg.RequireMinimal && net.cfg.MaxStray > 0 && !net.withinStray(p, nb) {
				return dst, drops, fmt.Errorf("sim: %s moved packet %d more than %d beyond its source-destination rectangle",
					alg.Name(), p.ID(), net.cfg.MaxStray)
			}
			// A legal move onto a failed link is silently dropped: the
			// packet stays put and may retry (or detour) next step.
			if net.hasFaults && !net.LinkUp(id, d) {
				drops++
				continue
			}
			dst = append(dst, Move{P: p, From: id, To: nb, Travel: d})
		}
	}
	return dst, drops, nil
}

// acceptTargets runs the part (c) inqueue dispatch for the given targets,
// appending the accepted offers to dst as arrivals. Each target's offers
// occupy a contiguous region of the flat offer index built by StepOnce
// (offStart was advanced past the region by the fill pass, so the region
// starts at offStart-offCount). It mutates only the given target nodes
// (through alg.Accept) and dst, so disjoint target shards may run
// concurrently. acceptBuf is the caller-owned reusable decision buffer.
func (net *Network) acceptTargets(alg Algorithm, targets []grid.NodeID, acceptBuf *[]bool, dst []Move) []Move {
	s := &net.scratch
	for _, to := range targets {
		cnt := int(s.offCount[to])
		start := int(s.offStart[to]) - cnt // pass 2 advanced offStart past the region
		offs := s.offers[start : start+cnt]
		if cap(*acceptBuf) < cnt {
			*acceptBuf = make([]bool, cnt)
		}
		acc := (*acceptBuf)[:cnt]
		for i := range acc {
			acc[i] = false
		}
		alg.Accept(net, &net.nodes[to], offs, acc)
		for i, ok := range acc {
			if ok {
				dst = append(dst, Move{P: offs[i].P, From: offs[i].From, To: to, Travel: offs[i].Travel})
			}
		}
	}
	return dst
}

// markDepartures validates every arrival against its sender's queue, marks
// the moving packets departing, and rebuilds the deduplicated distinct-
// sender list in s.senders. Serial: it writes the shared departing column
// and the sendMark epoch array.
func (net *Network) markDepartures(arrivals []Move) error {
	s := &net.scratch
	st := &net.P
	senders := s.senders[:0]
	for _, a := range arrivals {
		p, src := a.P, a.From
		if st.At[p] != src {
			return fmt.Errorf("sim: internal error, packet %d not found at sender", p.ID())
		}
		node := &net.nodes[src]
		if uint32(st.slot[p]) >= node.qLen || net.slots[node.qStart+uint32(st.slot[p])] != p {
			return fmt.Errorf("sim: internal error, packet %d not found at sender", p.ID())
		}
		st.departing[p] = true
		if s.sendMark[src] != s.stamp {
			s.sendMark[src] = s.stamp
			senders = append(senders, src)
		}
	}
	s.senders = senders
	return nil
}

// compactSenders removes departing packets from each listed sender's queue
// region, preserving FIFO order of the packets that stay, in one O(qLen)
// pass per sender. The per-tag count decrement reads the departing packet's
// old QTag, so compaction must complete before applyArrivals re-tags any
// packet (the P3 barrier when parallel). Senders are distinct nodes, so
// disjoint shards of the sender list touch disjoint queue regions.
func (net *Network) compactSenders(senders []grid.NodeID) {
	st := &net.P
	for _, id := range senders {
		node := &net.nodes[id]
		q := net.slots[node.qStart : node.qStart+node.qLen]
		w := uint32(0)
		for _, p := range q {
			if st.departing[p] {
				node.counts[st.QTag[p]]--
				continue
			}
			st.slot[p] = int32(w)
			q[w] = p
			w++
		}
		node.qLen = w
	}
}

// applyArrivals applies the given arrivals — delivering packets that
// reached their destination and attaching the rest to their new node's
// queue — returning the delivered count, the summed delivery delay
// (deliverStep-injectStep, for the metrics batch), and the hop count.
// Nodes that become occupied are appended to occOut (the shared occ list
// serially, a worker-private buffer in the parallel apply phase). Arrivals
// are grouped per target, so disjoint shards of the arrival list touch
// disjoint target nodes; queue regions must already have capacity for
// every arrival (pre-grown by growForArrivals when parallel).
func (net *Network) applyArrivals(arrivals []Move, occOut *[]grid.NodeID) (delivered, sumDelay, hops int) {
	st := &net.P
	t := net.step
	for _, a := range arrivals {
		p := a.P
		st.departing[p] = false
		st.Hops[p]++
		hops++
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
		net.attachTo(&net.nodes[a.To], p, tag, occOut)
	}
	return delivered, sumDelay, hops
}

// occupancy is the end-of-step occupancy summary the part (e) scan
// produces: the two maxima the run metrics keep, and — only when a metrics
// sink is installed — what the step sample reports besides.
type occupancy struct {
	// maxQueue is the largest single queue (excluding the unbounded origin
	// buffer), maxNodeLoad the largest total node load.
	maxQueue, maxNodeLoad int
	// nodes counts occupied nodes, inFlight their packets, and hist the
	// non-empty queues by size.
	nodes, inFlight int
	hist            obs.QueueHist
}

// merge folds a shard's summary into o.
func (o *occupancy) merge(w *occupancy) {
	o.maxQueue = max(o.maxQueue, w.maxQueue)
	o.maxNodeLoad = max(o.maxNodeLoad, w.maxNodeLoad)
	o.nodes += w.nodes
	o.inFlight += w.inFlight
	for i, c := range w.hist {
		o.hist[i] += c
	}
}

// updateNodes runs part (e) for the given occupied nodes — skipping
// stalled nodes, whose state must stay frozen — fused with the one
// end-of-step occupancy scan, whose summary of the shard it returns.
// Update still runs on nodes that emptied during the step (they held a
// packet at its start, which is the Update contract); the scan skips them.
// Updates are node-local for ParallelCloner algorithms and the scan is
// read-only, so disjoint shards may run concurrently.
func (net *Network) updateNodes(alg Algorithm, ids []grid.NodeID) (o occupancy) {
	sampled := net.sink != nil
	// The queues the model bounds by k: the central queue is tag 0, the four
	// inlink queues tags 0..3. The origin buffer (per-inlink only, and
	// unbounded) is not one of them, and no other tag is ever used.
	queues := uint8(1)
	if net.Queues == PerInlinkQueues {
		queues = OriginTag
	}
	maxQueue, maxNodeLoad := 0, 0
	for _, id := range ids {
		node := &net.nodes[id]
		if node.qLen > 0 {
			if l := int(node.qLen); l > maxNodeLoad {
				maxNodeLoad = l
			}
			for tag := uint8(0); tag < queues; tag++ {
				l := int(node.counts[tag])
				if l > maxQueue {
					maxQueue = l
				}
				if sampled && l > 0 {
					o.hist[obs.BucketOf(l)]++
				}
			}
			if sampled {
				o.nodes++
				o.inFlight += int(node.qLen)
			}
		}
		if net.hasFaults && net.stalledCnt[id] > 0 {
			continue
		}
		alg.Update(net, node)
	}
	o.maxQueue, o.maxNodeLoad = maxQueue, maxNodeLoad
	return o
}

// workerClones returns the per-worker algorithm clones for the configured
// worker count, or nil when the step must run serially (Workers <= 1, or the
// algorithm does not implement ParallelCloner). Clones and the per-worker
// scratch are cached across steps, keyed by the algorithm's name, and the
// persistent worker pool is (re)spawned here if a previous Run stopped it.
func (net *Network) workerClones(alg Algorithm) []Algorithm {
	w := net.cfg.Workers
	if w <= 1 {
		return nil
	}
	pc, ok := alg.(ParallelCloner)
	if !ok {
		return nil
	}
	if net.parName != alg.Name() || len(net.parClones) != w {
		net.parClones = net.parClones[:0]
		for i := 0; i < w; i++ {
			net.parClones = append(net.parClones, pc.CloneForWorker())
		}
		net.parName = alg.Name()
		net.ws = make([]workerScratch, w)
		for i := range net.ws {
			// A target's offers number at most one per inlink, so the
			// per-worker Accept decision buffer never needs more.
			net.ws[i].accept = make([]bool, grid.NumDirs)
		}
		net.scratch.occBounds = make([]int, w+1)
		net.scratch.tgtBounds = make([]int, w+1)
	}
	net.ensurePool()
	return net.parClones
}

// bumpStamp advances the epoch stamp that validates the offMark/sendMark
// node arrays, clearing them only on the (astronomically rare) wraparound.
func (s *stepScratch) bumpStamp() {
	s.stamp++
	if s.stamp == math.MaxInt32 {
		for i := range s.offMark {
			s.offMark[i] = 0
			s.sendMark[i] = 0
		}
		s.stamp = 1
	}
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
				if node.QueueLen(0) >= net.K {
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

// compactOcc drops empty nodes from the occupied list.
func (net *Network) compactOcc() {
	w := 0
	for _, id := range net.occ {
		if net.nodes[id].qLen > 0 {
			net.occ[w] = id
			w++
		} else {
			net.isOcc[id] = false
			net.nodes[id].sched = 0 // off the list, so part (a) will not reset it
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
