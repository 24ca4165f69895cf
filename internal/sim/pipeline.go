package sim

import (
	"runtime"

	"meshroute/internal/grid"
)

// This file implements the persistent parallel step pipeline ("step
// pipeline v2", docs/PERFORMANCE.md): a pool of long-lived worker
// goroutines that the engine drives through the parallelizable phases of
// one synchronous step with a lightweight reusable barrier, instead of
// spawning fresh goroutines per step. With Workers > 1 and a
// ParallelCloner algorithm, one StepOnce releases the pool five times:
//
//	P1 schedule — part (a), sharded over the occupied-node list
//	P2 accept   — part (c) dispatch, sharded over the offer-target list
//	P3 compact  — part (d) departures, sharded over the sender list
//	P4 apply    — part (d) arrivals, sharded by target owner (+ deliveries)
//	P5 update   — part (e) + the occupancy scan, sharded over occ
//
// Every phase writes only worker-owned state (a contiguous shard of nodes
// or list entries, plus the worker's own workerScratch buffers); the
// engine merges the buffers serially between phases in shard order, which
// reproduces the serial engine's iteration order exactly — so the
// pipeline is behavior-invisible (pinned by the golden-digest suite and
// TestParallelWorkersBitIdentical). A steady-state parallel step performs
// zero heap allocations at any worker count: the barrier is two channel
// operations per worker per phase, and all per-worker buffers are reused
// across steps.

// Phase identifiers for the pool barrier. The coordinator writes
// pool.phase before releasing the workers; the channel send orders the
// write before every worker's read.
const (
	phaseSchedule = iota
	phaseAccept
	phaseCompact
	phaseApply
	phaseUpdate
)

// stepPool is the persistent worker pool. It deliberately holds no
// reference to the Network between phases: the coordinator passes the
// network through the start channels on every release, so an abandoned
// Network can be collected (and its finalizer can stop the pool) even
// while the workers live.
type stepPool struct {
	phase int
	start []chan *Network
	done  chan struct{}
}

// newStepPool spawns one long-lived goroutine per worker, each blocked on
// its start channel until the first phase release.
func newStepPool(workers int) *stepPool {
	p := &stepPool{
		start: make([]chan *Network, workers),
		done:  make(chan struct{}, workers),
	}
	for w := range p.start {
		p.start[w] = make(chan *Network, 1)
		go p.worker(w)
	}
	return p
}

// worker is the long-lived goroutine body: wait for a release, run the
// current phase on the delivered network, signal completion. The network
// reference is dead after runPhase returns, so workers never keep an
// abandoned Network alive between steps.
func (p *stepPool) worker(w int) {
	for net := range p.start[w] {
		net.runPhase(p.phase, w)
		p.done <- struct{}{}
	}
}

// run releases every worker into the given phase and waits for all of
// them — the reusable barrier. Costs two channel operations per worker
// and zero allocations.
func (p *stepPool) run(net *Network, phase int) {
	p.phase = phase
	for _, c := range p.start {
		c <- net
	}
	for range p.start {
		<-p.done
	}
}

// stop closes the start channels; the workers drain and exit.
func (p *stepPool) stop() {
	for _, c := range p.start {
		close(c)
	}
}

// workerScratch is one worker's private pipeline state: phase outputs
// that the engine merges serially in shard order. All slices are reused
// across steps (reset with [:0]), so the steady-state parallel step
// allocates nothing. Counters are accumulated in locals inside the phase
// bodies and stored once, to keep false sharing off the hot loops.
type workerScratch struct {
	// P1 schedule outputs.
	moves []Move
	drops int
	err   error
	// P2 accept outputs: the arrivals accepted from this worker's target
	// shard, grouped contiguously per target in target order.
	arrivals []Move
	accept   []bool
	// P4 apply outputs.
	newOcc    []grid.NodeID // nodes that became occupied, in attach order
	delivered int
	sumDelay  int
	hops      int
	// P5 update output: the occupancy summary of this worker's shard.
	occ occupancy
}

// shardRange returns worker w's half-open share [lo, hi) of n items split
// across workers contiguous shards.
func shardRange(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// balanceBounds fills bounds (length workers+1) with contiguous shard
// boundaries over n items such that every worker's summed weight is close
// to total/workers (off by at most one item's weight). Weighted shards do
// two jobs: worker wall-clock tracks packet mass rather than node count,
// and — because a shard's weight share can never exceed its quantile of
// the global total — per-worker output-buffer demand is proportional to
// global demand, so buffer capacities stop growing once the global peak
// has passed (the steady-state zero-alloc contract at any w).
func balanceBounds(bounds []int, n, total, workers int, weight func(i int) int) {
	bounds[0] = 0
	w := 1
	acc := 0
	for i := 0; i < n && w < workers; i++ {
		acc += weight(i)
		for w < workers && acc >= (total*w+workers-1)/workers {
			bounds[w] = i + 1
			w++
		}
	}
	for ; w <= workers; w++ {
		bounds[w] = n
	}
}

// runPhase dispatches one worker into the current phase body. A switch on
// a plain int (rather than a stored closure) keeps the release path free
// of allocations.
func (net *Network) runPhase(phase, w int) {
	switch phase {
	case phaseSchedule:
		net.phaseSchedule(w)
	case phaseAccept:
		net.phaseAccept(w)
	case phaseCompact:
		net.phaseCompact(w)
	case phaseApply:
		net.phaseApply(w)
	case phaseUpdate:
		net.phaseUpdate(w)
	}
}

// phaseSchedule is P1: part (a) outqueue scheduling on this worker's
// shard of the occupied-node list (balanced by resident-packet mass; see
// balanceBounds), with its private algorithm clone.
func (net *Network) phaseSchedule(w int) {
	s := &net.scratch
	ws := &net.ws[w]
	shard := net.occ[s.occBounds[w]:s.occBounds[w+1]]
	ws.moves, ws.drops, ws.err = net.scheduleNodes(net.parClones[w], shard, ws.moves[:0])
}

// phaseAccept is P2: part (c) inqueue dispatch on this worker's shard of
// the offer-target list. Offers are already grouped into contiguous
// per-target regions of the flat offer index, and inqueue policies are
// target-node-local (the ParallelCloner contract), so disjoint target
// shards dispatch concurrently; accepted arrivals collect in the worker's
// buffer and are merged in shard order, reproducing the serial order.
func (net *Network) phaseAccept(w int) {
	s := &net.scratch
	ws := &net.ws[w]
	shard := s.targets[s.tgtBounds[w]:s.tgtBounds[w+1]]
	ws.arrivals = net.acceptTargets(net.parClones[w], shard, &ws.accept, ws.arrivals[:0])
}

// phaseCompact is P3, the sender-owner half of part (d): each worker
// compacts the queues of its shard of the distinct-sender list, removing
// departing packets. Senders are distinct nodes, so shards touch disjoint
// queue regions.
func (net *Network) phaseCompact(w int) {
	lo, hi := shardRange(len(net.scratch.senders), len(net.parClones), w)
	net.compactSenders(net.scratch.senders[lo:hi])
}

// phaseApply is P4, the target-owner half of part (d): the worker applies
// an even shard of the delivery prefix (per-packet writes only) plus the
// arrivals it accepted in P2 (whose targets it owns), appending
// newly-occupied nodes and delivery/hop counters to its scratch for the
// serial merge. Queue regions were pre-grown between P3 and P4
// (growForArrivals), so attach never touches the shared slot arena
// length.
func (net *Network) phaseApply(w int) {
	s := &net.scratch
	ws := &net.ws[w]
	// Pre-size the newly-occupied buffer to its hard bound — one entry per
	// attached arrival (deliveries never attach) — so it stops growing as
	// soon as the arrival buffer has: in a initially-full network, nodes
	// only start *becoming* occupied mid-run, long after warm-up, and
	// growing here lazily would break the steady-state zero-alloc contract.
	if cap(ws.newOcc) < cap(ws.arrivals) {
		ws.newOcc = make([]grid.NodeID, 0, cap(ws.arrivals))
	}
	ws.newOcc = ws.newOcc[:0]
	lo, hi := shardRange(s.nDeliv, len(net.parClones), w)
	d1, sd1, h1 := net.applyArrivals(s.arrivals[lo:hi], &ws.newOcc)
	d2, sd2, h2 := net.applyArrivals(ws.arrivals, &ws.newOcc)
	ws.delivered, ws.sumDelay, ws.hops = d1+d2, sd1+sd2, h1+h2
}

// phaseUpdate is P5: part (e) state updates fused with the end-of-step
// occupancy scan, on this worker's shard of the (post-apply) occupied list.
func (net *Network) phaseUpdate(w int) {
	lo, hi := shardRange(len(net.occ), len(net.parClones), w)
	net.ws[w].occ = net.updateNodes(net.parClones[w], net.occ[lo:hi])
}

// growForArrivals pre-grows every target's queue region to absorb its
// accepted arrivals, so the parallel apply phase never relocates a region
// (growQueue appends to the shared slot arena and must stay serial). It
// runs after sender compaction, so qLen is the post-departure occupancy
// and the doubling sequence is exactly the one the serial attach loop
// would have performed. The accepted section of the merged arrival list
// is contiguous per target, so one linear walk suffices.
func (net *Network) growForArrivals() {
	s := &net.scratch
	arr := s.arrivals[s.nDeliv:]
	for i := 0; i < len(arr); {
		to := arr[i].To
		j := i + 1
		for j < len(arr) && arr[j].To == to {
			j++
		}
		node := &net.nodes[to]
		need := node.qLen + uint32(j-i)
		for node.qCap < need {
			net.growQueue(node)
		}
		i = j
	}
}

// ensurePool lazily spawns the persistent worker pool (and arms the
// finalizer backstop that stops it if the Network is abandoned without a
// Run call). The pool is stopped at the end of every Run/RunPartial and
// respawned on the next parallel step, so callers that only ever use the
// Run family never leak goroutines; direct StepOnce drivers are covered
// by the finalizer.
func (net *Network) ensurePool() {
	if net.pool == nil {
		net.pool = newStepPool(net.cfg.Workers)
		if !net.poolFinalizer {
			net.poolFinalizer = true
			runtime.SetFinalizer(net, (*Network).stopPool)
		}
	}
}

// stopPool stops the persistent workers, if any. Idempotent; the pool
// respawns lazily on the next parallel StepOnce. Must not be called
// concurrently with StepOnce (the engine is single-driver by contract).
func (net *Network) stopPool() {
	if net.pool != nil {
		net.pool.stop()
		net.pool = nil
	}
}
