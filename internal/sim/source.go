package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"meshroute/internal/grid"
)

// Injection is one streamed packet request: a source node asking to inject
// a packet toward a destination at some step. It carries no PacketID — the
// engine materializes a packet only when the injection is accepted into the
// run (immediately for the retry policy, at admission time for the drop
// policy), so refused offers under AdmitDrop never enter the packet store.
type Injection = grid.Pair

// Source is a streaming workload: the generalization of "place everything
// before step 0" to continuous, online injection. The engine drives an
// attached Source with a strict calling contract that makes seeded sources
// exactly reproducible:
//
//   - Next(t, buf) is called exactly once per step t, for t = 0 (at
//     AttachSource time), then t = 1, 2, … at the start of each engine
//     step, in strictly increasing order;
//   - Next appends this step's injections to buf and returns it — the
//     engine passes a reused buffer, so a steady-state pull allocates
//     nothing once the buffer has reached its working size;
//   - Exhausted(t) is consulted after Next(t) and must report whether the
//     source will produce no injections at any step > t; once it returns
//     true the engine never calls the source again;
//   - implementations that consume a seeded RNG must consume it only
//     inside Next, so the single-call-per-step contract pins the random
//     stream and identical seeds yield identical runs.
//
// Step-0 injections are placements: they go through the same admission as
// Place, so a Source that emits everything at step 0 is the degenerate
// one-shot case (see internal/workload's Replay).
type Source interface {
	// Next appends the injections arriving at the given step to buf and
	// returns the (possibly reallocated) buffer.
	Next(step int, buf []Injection) []Injection
	// Exhausted reports, after Next(step) has been called, that no
	// injections will be produced for any later step.
	Exhausted(step int) bool
}

// sizedSource is an open Source whose injection count is binomial:
// trials independent injections of probability p (p = 1 for a count known
// to within a few packets). AttachSource sizes the packet store from it,
// and the count also decides OpenWorkload: a sizedSource of zero trials
// (a periodic process of horizon 1) injects nothing after step 0, so its run is not an
// online one, though it lasts until the source is exhausted. A source
// without the method is online whenever it is not exhausted at step 0.
type sizedSource interface{ InjectionTrials() (trials, p float64) }

// maxReservedRowsPerNode caps the packet rows reserved for a sizedSource, a
// bound set by the network and not by the spec's unbounded horizon and
// rate: online-mesh needs about 24 a node, the periodic specs 19; a
// heavier run (E12's full sweep, up to 115) doubles from the cap.
const maxReservedRowsPerNode = 32

// AdmissionPolicy selects what happens to an injection whose source node's
// k-bounded queue has no free slot at arrival time.
type AdmissionPolicy uint8

const (
	// AdmitRetry parks refused injections in the node's unbounded FIFO
	// backlog and retries every step until a slot frees up — the
	// destination-independent entry discipline of the paper's Section 5
	// dynamic extension, which Place applies at step 0. No injection is
	// ever lost; each step a packet waits in the backlog counts as one
	// refusal.
	AdmitRetry AdmissionPolicy = iota
	// AdmitDrop discards refused injections at arrival time — the
	// loss-model of the online bounded-buffer setting (Even–Medina–
	// Patt-Shamir), where the figure of merit is the throughput of the
	// admitted packets. Dropped injections are counted but never
	// materialized, so they do not appear in Packets() or totals.
	AdmitDrop
)

// AttachSource installs a streaming workload on the network, to be pulled
// once per step by the injection phase, and immediately admits the source's
// step-0 injections as placements (the degenerate one-shot case): each is
// placed exactly like Place, so an injection that finds no room at step 0
// waits in its source's backlog under AdmitRetry and is a counted drop
// under AdmitDrop. It is an error to attach a source after the run has
// started or to attach two sources.
//
// A one-shot source (exhausted at step 0) fixes the whole run before step 1:
// its buffers are sized once (reserveStatic), and its Next buffer is not
// kept. Under AdmitRetry every injection becomes a packet, so a sizedSource
// has the packet store and placement list reserved from its arrival
// process: the mean count plus four standard deviations and minStoreCap,
// capped at maxReservedRowsPerNode rows a node, which bounds the
// reservation by the network whatever the horizon and rate. Under AdmitDrop
// nothing is reserved: a dropped injection never becomes a packet.
func (net *Network) AttachSource(src Source, policy AdmissionPolicy) error {
	if net.step != 0 || net.inited {
		return errors.New("sim: AttachSource after run started")
	}
	if net.source != nil {
		return errors.New("sim: source already attached")
	}
	if policy != AdmitRetry && policy != AdmitDrop {
		return fmt.Errorf("sim: unknown admission policy %d", policy)
	}
	net.source = src
	net.admit = policy
	buf := src.Next(0, net.injBuf[:0])
	net.srcExhausted = src.Exhausted(0)
	net.openSource = !net.srcExhausted
	reserve := len(buf)
	if s, ok := src.(sizedSource); ok && net.openSource {
		trials, p := s.InjectionTrials()
		// A process of no trials injects nothing after step 0: its run
		// lasts until the source is exhausted, but it is not an online one.
		net.openSource = trials > 0
		if net.openSource && policy == AdmitRetry {
			expected := maxReservedRowsPerNode * len(net.nodes)
			if want := trials*p + 4*math.Sqrt(trials*p*(1-p)) + minStoreCap; want < float64(expected) {
				expected = int(want) // a NaN keeps the cap
			}
			reserve += expected
		}
	}
	net.ReserveInjections(reserve)
	if net.srcExhausted {
		net.reserveStatic(len(buf))
	} else {
		net.injBuf = buf[:0]
	}
	m := &net.Metrics
	for _, inj := range buf {
		if policy == AdmitDrop {
			if err := net.checkInjection(0, inj); err != nil {
				return err // under AdmitRetry, Place refuses it
			}
			if !net.admits(inj.Src, inj.Dst) {
				m.Offered++
				m.Refused++
				m.Dropped++
				continue
			}
		}
		if err := net.Place(net.NewPacket(inj.Src, inj.Dst)); err != nil {
			return err
		}
	}
	return nil
}

// reserveStatic sizes the step loop's buffers for a run whose n packets are
// all placed before step 1. Each resident moves at most once a step, so a
// step has at most n moves and arrivals and min(n, N) targets and senders.
// A dense instance (n >= N) also gets the occupied list and, under a
// central queue with K <= minQueueCap, a first region per node, fixed points
// included (a permutation passes packets through them later): no queue
// outgrows it. A sparse instance's list and arena, and the arena of a
// larger K (which nothing bounds), grow on demand.
func (net *Network) reserveStatic(n int) {
	s := &net.scratch
	s.moves = make([]Move, 0, n)
	s.arrivals = make([]Move, 0, n)
	s.next = make([]int32, 0, n)
	nodes := len(net.nodes)
	s.targets = make([]grid.NodeID, 0, min(n, nodes))
	s.senders = make([]grid.NodeID, 0, min(n, nodes))
	if n < nodes {
		return
	}
	net.occ = slices.Grow(net.occ, nodes)
	if net.Queues == CentralQueue && net.K <= minQueueCap {
		net.slots = slices.Grow(net.slots, nodes*minQueueCap)
	}
}

// OpenWorkload reports whether the network was populated by a Source that
// injects beyond step 0 — an online run, for which throughput and refusal
// statistics are meaningful. One-shot sources (everything at step 0), a
// sizedSource of no trials and source-less networks report false.
func (net *Network) OpenWorkload() bool { return net.openSource }

// ReserveInjections makes room in the packet store and placement list for n
// additional packets. AttachSource calls it once, for the step-0 packets
// and a sizedSource's expected ones; past that the store doubles. Purely
// an optimization.
func (net *Network) ReserveInjections(n int) {
	net.P.reserve(n)
	net.placed = slices.Grow(net.placed, n)
}

// sourcePacket materializes one accepted streamed injection: the packet
// enters the store and the run's books (track).
func (net *Network) sourcePacket(inj Injection) PacketID {
	p := net.P.add(inj.Src, inj.Dst)
	net.track(p)
	return p
}

// pullSource asks the attached source for step t's injections and admits
// them under the configured policy. A pull that names a node outside the
// topology admits nothing, stops the source and is refused by Run. Under
// AdmitRetry the injections materialize immediately and join their
// sources' backlogs, which injectPending then drains in FIFO order; under
// AdmitDrop each injection the admission rule (admits) lets in enters at
// once, and any other is discarded without ever materializing.
func (net *Network) pullSource(t int) {
	buf := net.source.Next(t, net.injBuf[:0])
	net.injBuf = buf[:0] // keep the grown capacity for the next pull
	for _, inj := range buf {
		if net.srcErr = net.checkInjection(t, inj); net.srcErr != nil {
			net.srcExhausted = true
			return
		}
	}
	net.stepOffered = len(buf)
	for _, inj := range buf {
		switch {
		case net.admit == AdmitRetry:
			net.toBacklog(inj.Src, net.sourcePacket(inj))
		case net.admits(inj.Src, inj.Dst):
			net.enter(net.sourcePacket(inj), t)
			net.stepAdmitted++
		default:
			net.stepDropped++
		}
	}
	net.srcExhausted = net.source.Exhausted(t)
}

// Err reports the pull refused for naming a node outside the topology. Run
// returns it and Done stays false; a caller of StepOnce must read it.
func (net *Network) Err() error { return net.srcErr }

// checkInjection refuses an injection of step t that names a node outside
// the topology, in the words Place uses for a packet.
func (net *Network) checkInjection(t int, inj Injection) error {
	for _, v := range [...]grid.NodeID{inj.Src, inj.Dst} {
		if v < 0 || int(v) >= len(net.nodes) {
			return fmt.Errorf("sim: step %d: injection (%d->%d): node %d is not one of the topology's %d nodes", t, inj.Src, inj.Dst, v, len(net.nodes))
		}
	}
	return nil
}

// toBacklog appends p to its source node's backlog and puts the node on the
// active-backlog list. The first call allocates the per-node backlog arrays.
func (net *Network) toBacklog(src grid.NodeID, p PacketID) {
	if net.backlog == nil {
		n := len(net.nodes)
		net.backlog = make([][]PacketID, n)
		net.inBacklog = make([]bool, n)
		net.backlogHead = make([]int32, n)
	}
	net.backlog[src] = append(net.backlog[src], p)
	if !net.inBacklog[src] {
		net.inBacklog[src] = true
		net.backlogNodes = append(net.backlogNodes, src)
	}
	net.backlogTotal++
}
