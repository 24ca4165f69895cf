package sim_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// The reference engine: a map-and-slice model of Section 2's five-part step
// that re-applies, step by step, the decisions the routing algorithm gave
// the engine, and is compared with the engine after every StepOnce. It has
// no packet store, offer chain or profitable-set cache: its queues and
// admission backlogs are one FIFO list per node, its packets one record
// each, its geometry coordinate arithmetic, and its faults the schedule's
// own events.
// It covers both queue models, both admission policies and fault schedules
// without permanent link failures, without an exchange hook.

// schedCall is one outqueue decision: the node and Schedule's answer.
type schedCall struct {
	node  grid.NodeID
	sched [grid.NumDirs]int
}

// acceptRec is one inqueue decision: the target, and where its offers and
// answers sit in the recorder's flat lists.
type acceptRec struct {
	target grid.NodeID
	at, n  int
}

// decisionRecorder wraps an algorithm and records, for the current step,
// every Schedule answer and every Accept call in the order the engine
// made them.
type decisionRecorder struct {
	sim.Algorithm
	scheds   []schedCall
	accepts  []acceptRec
	offers   []sim.Offer
	accepted []bool
}

func (r *decisionRecorder) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	s := r.Algorithm.Schedule(net, n)
	r.scheds = append(r.scheds, schedCall{n.ID, s})
	return s
}

func (r *decisionRecorder) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	r.Algorithm.Accept(net, n, offers, acc)
	r.accepts = append(r.accepts, acceptRec{n.ID, len(r.offers), len(offers)})
	r.offers = append(r.offers, offers...)
	r.accepted = append(r.accepted, acc...)
}

func (r *decisionRecorder) reset() {
	r.scheds, r.accepts, r.offers, r.accepted = r.scheds[:0], r.accepts[:0], r.offers[:0], r.accepted[:0]
}

// injectionRecorder wraps the network's source and keeps what its pulls
// returned since the last reset, so the model admits exactly the
// injections the engine was offered.
type injectionRecorder struct {
	sim.Source
	injs []sim.Injection
}

func (r *injectionRecorder) Next(step int, buf []sim.Injection) []sim.Injection {
	n := len(buf)
	buf = r.Source.Next(step, buf)
	r.injs = append(r.injs, buf[n:]...)
	return buf
}

// refPacket is the model's record of one packet.
type refPacket struct {
	src, dst, at             grid.NodeID
	qtag                     uint8
	arrived                  grid.Dir
	arrivedStep, deliverStep int
	injectStep               int
	hops                     int
}

// refLink is one directed link: a node and an outlink.
type refLink struct {
	node grid.NodeID
	dir  grid.Dir
}

// refModel is the reference engine's state.
type refModel struct {
	side      int
	torus     bool
	k         int
	perInlink bool
	minimal   bool
	maxStray  int
	drop      bool // AdmitDrop: an injection that cannot enter is discarded

	queues  [][]sim.PacketID // per node, FIFO
	backlog [][]sim.PacketID // per node, FIFO: packets waiting to enter
	pkts    []refPacket      // by PacketID; 0 is no packet
	step    int

	// occ lists the nodes in the order they became occupied, which is the
	// order the engine asks them to schedule; a node leaves it when part
	// (a) finds it empty.
	occ   []grid.NodeID
	onOcc []bool

	// The fault schedule and its effect so far: open transient failures
	// per link, permanently failed links, open stalls per node.
	events  []fault.Event
	applied int
	down    map[refLink]int
	perm    map[refLink]bool
	stalls  map[grid.NodeID]int

	// Run totals of scheduled moves dropped onto a failed link or into a
	// stalled node, and of the latter alone.
	faultDrops, stallDrops int
	// The last step's admission (before step 1, the placement's): offers,
	// entries, refusals (every packet still waiting plus every discarded
	// offer) and discarded offers.
	offered, admitted, refused, dropped int
}

// newRefModel starts the model where the engine starts a run: the packets
// created before step 1 placed in ID order, each delivered if it is at its
// destination, else queued at its source if there is room and backlogged
// behind the source's earlier overflow if not.
func newRefModel(net *sim.Network, cfg sim.Config, policy sim.AdmissionPolicy) *refModel {
	n := cfg.Topo.N()
	m := &refModel{
		side:      cfg.Topo.Width(),
		torus:     cfg.Topo.Wraparound(),
		k:         cfg.K,
		perInlink: cfg.Queues == sim.PerInlinkQueues,
		minimal:   cfg.RequireMinimal,
		maxStray:  cfg.MaxStray,
		drop:      policy == sim.AdmitDrop,
		queues:    make([][]sim.PacketID, n),
		backlog:   make([][]sim.PacketID, n),
		onOcc:     make([]bool, n),
		pkts:      make([]refPacket, 1, net.P.Len()+1),
		down:      map[refLink]int{},
		perm:      map[refLink]bool{},
		stalls:    map[grid.NodeID]int{},
	}
	if cfg.Faults != nil {
		m.events = cfg.Faults.Events
	}
	for p := sim.PacketID(1); int(p) <= net.P.Len(); p++ {
		inj := sim.Injection{Src: net.P.Src[p], Dst: net.P.Dst[p]}
		m.newPacket(inj)
		m.offered++
		if len(m.backlog[inj.Src]) == 0 && m.admits(inj) {
			m.enter(p, 0)
			m.admitted++
		} else {
			m.backlog[inj.Src] = append(m.backlog[inj.Src], p)
			m.refused++
		}
	}
	return m
}

// newPacket materializes a packet at its source.
func (m *refModel) newPacket(inj sim.Injection) sim.PacketID {
	m.pkts = append(m.pkts, refPacket{src: inj.Src, dst: inj.Dst, at: inj.Src, arrived: grid.NoDir, deliverStep: -1})
	return sim.PacketID(len(m.pkts) - 1)
}

// admits is the admission rule: a stalled source admits nothing; a packet
// at its destination is delivered in place; any other needs, under a
// central queue, a free slot (the four-inlink origin buffer is unbounded).
func (m *refModel) admits(inj sim.Injection) bool {
	return !m.stalled(inj.Src) && (inj.Src == inj.Dst || m.perInlink || len(m.queues[inj.Src]) < m.k)
}

// enter admits packet p at step t, delivering it if it is at its
// destination and queueing it at its source otherwise; it returns the
// number delivered.
func (m *refModel) enter(p sim.PacketID, t int) int {
	rp := &m.pkts[p]
	rp.injectStep = t
	if rp.src == rp.dst {
		rp.deliverStep = t
		return 1
	}
	if m.perInlink {
		rp.qtag = sim.OriginTag
	}
	m.join(rp.src, p)
	return 0
}

// join appends p to the node's queue, and the node to occ if it is not on
// it.
func (m *refModel) join(id grid.NodeID, p sim.PacketID) {
	m.queues[id] = append(m.queues[id], p)
	if !m.onOcc[id] {
		m.onOcc[id] = true
		m.occ = append(m.occ, id)
	}
}

// admit runs step t's admission: under retry every injection joins its
// source's backlog, under drop it enters at once or is discarded; then
// every backlog drains in FIFO order, in ascending node order, until its
// head is refused. It returns the number delivered.
func (m *refModel) admit(t int, injs []sim.Injection) (delivered int) {
	m.offered, m.admitted, m.dropped = len(injs), 0, 0
	for _, inj := range injs {
		switch {
		case !m.drop:
			m.backlog[inj.Src] = append(m.backlog[inj.Src], m.newPacket(inj))
		case m.admits(inj):
			delivered += m.enter(m.newPacket(inj), t)
			m.admitted++
		default:
			m.dropped++
		}
	}
	waiting := 0
	for id, bl := range m.backlog {
		for len(bl) > 0 && m.admits(sim.Injection{Src: m.pkts[bl[0]].src, Dst: m.pkts[bl[0]].dst}) {
			delivered += m.enter(bl[0], t)
			m.admitted++
			bl = bl[1:]
		}
		m.backlog[id] = bl
		waiting += len(bl)
	}
	m.refused = m.dropped + waiting
	return delivered
}

// applyFaults applies every schedule event due at or before step t. A
// recovery or wake ends one open episode, so overlapping episodes compose.
func (m *refModel) applyFaults(t int) {
	for ; m.applied < len(m.events) && m.events[m.applied].Step <= t; m.applied++ {
		e := m.events[m.applied]
		l := refLink{e.Node, e.Dir}
		switch {
		case e.Kind == fault.LinkDown && e.Permanent:
			m.perm[l] = true
		case e.Kind == fault.LinkDown:
			m.down[l]++
		case e.Kind == fault.LinkUp && m.down[l] > 0:
			m.down[l]--
		case e.Kind == fault.NodeStall:
			m.stalls[e.Node]++
		case e.Kind == fault.NodeWake && m.stalls[e.Node] > 0:
			m.stalls[e.Node]--
		}
	}
}

func (m *refModel) stalled(id grid.NodeID) bool { return m.stalls[id] > 0 }

func (m *refModel) linkUp(l refLink) bool { return !m.perm[l] && m.down[l] == 0 }

func (m *refModel) xy(id grid.NodeID) (int, int) { return int(id) % m.side, int(id) / m.side }

// neighbor is the node one hop from id in direction d, if the link exists.
func (m *refModel) neighbor(id grid.NodeID, d grid.Dir) (grid.NodeID, bool) {
	x, y := m.xy(id)
	switch d {
	case grid.East:
		x++
	case grid.West:
		x--
	case grid.North:
		y++
	case grid.South:
		y--
	}
	if m.torus {
		x, y = (x+m.side)%m.side, (y+m.side)%m.side
	} else if x < 0 || x >= m.side || y < 0 || y >= m.side {
		return 0, false
	}
	return grid.NodeID(y*m.side + x), true
}

// profitable is the set of outlinks that bring a packet at id closer to
// dst: on the torus, both ways around a ring when they tie.
func (m *refModel) profitable(id, dst grid.NodeID) grid.DirSet {
	x, y := m.xy(id)
	dx, dy := m.xy(dst)
	var s grid.DirSet
	dim := func(from, to int, up, down grid.Dir) {
		if from == to {
			return
		}
		upHops := to - from
		if upHops < 0 {
			upHops += m.side
		}
		downHops := m.side - upHops
		if !m.torus {
			upHops, downHops = to-from, from-to
		}
		if upHops > 0 && (!m.torus || upHops <= downHops) {
			s = s.Set(up)
		}
		if downHops > 0 && (!m.torus || downHops <= upHops) {
			s = s.Set(down)
		}
	}
	dim(x, dx, grid.East, grid.West)
	dim(y, dy, grid.North, grid.South)
	return s
}

// withinStray reports whether node c lies in the packet's source-destination
// rectangle inflated by maxStray (a mesh rule).
func (m *refModel) withinStray(rp *refPacket, c grid.NodeID) bool {
	sx, sy := m.xy(rp.src)
	dx, dy := m.xy(rp.dst)
	cx, cy := m.xy(c)
	return cx >= min(sx, dx)-m.maxStray && cx <= max(sx, dx)+m.maxStray &&
		cy >= min(sy, dy)-m.maxStray && cy <= max(sy, dy)+m.maxStray
}

// tagOf is the queue an arrival travelling d joins.
func (m *refModel) tagOf(d grid.Dir) uint8 {
	if m.perInlink {
		return uint8(d.Opposite())
	}
	return 0
}

// bounded reports whether the queue with the given tag is bounded by k.
func (m *refModel) bounded(tag uint8) bool { return !m.perInlink || tag != sim.OriginTag }

// tagCounts counts the node's residents by queue tag.
func (m *refModel) tagCounts(id grid.NodeID) (c [sim.NumQueueTags]int) {
	for _, p := range m.queues[id] {
		c[m.pkts[p].qtag]++
	}
	return c
}

// apply runs one step: the step's faults, the admission of its injections,
// then the recorded decisions of parts (a)-(d). It returns the step's
// arrivals, delivered count (admission included) and largest bounded queue.
func (m *refModel) apply(rec *decisionRecorder, injs []sim.Injection) (arrivals []sim.Move, delivered, maxQueue int, err error) {
	m.step++
	t := m.step
	m.applyFaults(t)
	delivered = m.admit(t, injs)

	// Part (a): every nonempty node that is not stalled decides once, in
	// occ order; each answer must be legal. A legal move onto a failed link
	// is dropped.
	var ask []grid.NodeID
	w := 0
	for _, id := range m.occ {
		if len(m.queues[id]) == 0 {
			m.onOcc[id] = false
			continue
		}
		m.occ[w] = id
		w++
		if !m.stalled(id) {
			ask = append(ask, id)
		}
	}
	m.occ = m.occ[:w]
	if len(rec.scheds) != len(ask) {
		return nil, 0, 0, fmt.Errorf("step %d: %d nodes asked to schedule, want %d", t, len(rec.scheds), len(ask))
	}
	var moves []sim.Move
	for i, sc := range rec.scheds {
		q := m.queues[sc.node]
		if sc.node != ask[i] {
			return nil, 0, 0, fmt.Errorf("step %d: Schedule call %d asked node %d, want node %d", t, i, sc.node, ask[i])
		}
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			i := sc.sched[d]
			if i < 0 {
				continue
			}
			if i >= len(q) || slices.Contains(sc.sched[:d], i) {
				return nil, 0, 0, fmt.Errorf("step %d: node %d scheduled index %d of %d on %v twice or out of range", t, sc.node, i, len(q), d)
			}
			p := q[i]
			rp := &m.pkts[p]
			to, ok := m.neighbor(sc.node, d)
			switch {
			case !ok:
				return nil, 0, 0, fmt.Errorf("step %d: node %d scheduled packet %d on missing outlink %v", t, sc.node, p, d)
			case m.minimal && !m.profitable(sc.node, rp.dst).Has(d):
				return nil, 0, 0, fmt.Errorf("step %d: node %d scheduled packet %d non-minimally on %v", t, sc.node, p, d)
			case !m.minimal && m.maxStray > 0 && !m.withinStray(rp, to):
				return nil, 0, 0, fmt.Errorf("step %d: node %d moved packet %d past its stray bound", t, sc.node, p)
			case !m.linkUp(refLink{sc.node, d}):
				m.faultDrops++
				continue
			}
			moves = append(moves, sim.Move{P: p, From: sc.node, To: to, Travel: d})
		}
	}

	// Part (c): a stalled node accepts nothing, not even a delivery;
	// deliveries bypass the inqueue policy and lead the arrivals; every
	// other target sees its offers in move order, targets in first-seen
	// order.
	var order []grid.NodeID
	offers := map[grid.NodeID][]sim.Move{}
	for _, mv := range moves {
		switch {
		case m.stalled(mv.To):
			m.faultDrops++
			m.stallDrops++
		case mv.To == m.pkts[mv.P].dst:
			arrivals = append(arrivals, mv)
		default:
			if _, ok := offers[mv.To]; !ok {
				order = append(order, mv.To)
			}
			offers[mv.To] = append(offers[mv.To], mv)
		}
	}
	if len(rec.accepts) != len(order) {
		return nil, 0, 0, fmt.Errorf("step %d: %d Accept calls, want one for each of %d targets", t, len(rec.accepts), len(order))
	}
	for i, id := range order {
		call, offs := rec.accepts[i], offers[id]
		shown := rec.offers[call.at : call.at+call.n]
		if call.target != id || len(shown) != len(offs) {
			return nil, 0, 0, fmt.Errorf("step %d: Accept call %d went to node %d with %d offers, want node %d with %d", t, i, call.target, len(shown), id, len(offs))
		}
		for j, mv := range offs {
			if o := shown[j]; o.P != mv.P || o.From != mv.From || o.Travel != mv.Travel {
				return nil, 0, 0, fmt.Errorf("step %d: node %d offer %d is %+v, want %+v", t, id, j, o, mv)
			}
			if rec.accepted[call.at+j] {
				arrivals = append(arrivals, mv)
			}
		}
	}

	// Part (d): every departure leaves its sender's queue before any
	// arrival joins one.
	for _, a := range arrivals {
		q := m.queues[a.From]
		i := slices.Index(q, a.P)
		if i < 0 {
			return nil, 0, 0, fmt.Errorf("step %d: packet %d departs node %d, which does not hold it", t, a.P, a.From)
		}
		m.queues[a.From] = slices.Delete(q, i, i+1)
	}
	for _, a := range arrivals {
		rp := &m.pkts[a.P]
		rp.hops++
		rp.arrived = a.Travel
		rp.arrivedStep = t
		rp.at = a.To
		if a.To == rp.dst {
			rp.deliverStep = t
			delivered++
			continue
		}
		rp.qtag = m.tagOf(a.Travel)
		m.join(a.To, a.P)
	}

	// The policies must not overflow a queue.
	for id := range m.queues {
		for tag, c := range m.tagCounts(grid.NodeID(id)) {
			if !m.bounded(uint8(tag)) {
				continue
			}
			if c > m.k {
				return nil, 0, 0, fmt.Errorf("step %d: node %d queue %d holds %d > k=%d", t, id, tag, c, m.k)
			}
			maxQueue = max(maxQueue, c)
		}
	}
	return arrivals, delivered, maxQueue, nil
}

// compare holds the engine to the model: every queue's and backlog's
// contents in order, every per-tag count and every packet's position and
// history.
func (m *refModel) compare(net *sim.Network) error {
	t := net.Step()
	for id, q := range m.queues {
		node := net.Node(grid.NodeID(id))
		if got := net.PacketsOf(node); !slices.Equal(got, q) {
			return fmt.Errorf("step %d: node %d holds %v, model %v", t, id, got, q)
		}
		if got := sim.Backlog(net, grid.NodeID(id)); !slices.Equal(got, m.backlog[id]) {
			return fmt.Errorf("step %d: node %d backlog %v, model %v", t, id, got, m.backlog[id])
		}
		for tag, want := range m.tagCounts(grid.NodeID(id)) {
			if got := net.QueueLen(node, uint8(tag)); got != want {
				return fmt.Errorf("step %d: node %d QueueLen(%d) = %d, model %d", t, id, tag, got, want)
			}
		}
	}
	if got := net.P.Len(); got != len(m.pkts)-1 {
		return fmt.Errorf("step %d: %d packets, model %d", t, got, len(m.pkts)-1)
	}
	for i := 1; i < len(m.pkts); i++ {
		p, rp := sim.PacketID(i), &m.pkts[i]
		got := refPacket{
			src: net.P.Src[p], dst: net.P.Dst[p], at: net.P.At[p], qtag: net.P.QTag[p],
			arrived: net.P.Arrived[p], arrivedStep: int(net.P.ArrivedStep[p]),
			deliverStep: int(net.P.DeliverStep[p]), injectStep: int(net.P.InjectStep[p]),
			hops: int(net.P.Hops[p]),
		}
		if got != *rp {
			return fmt.Errorf("step %d: packet %d is %+v, model %+v", t, p, got, *rp)
		}
	}
	return nil
}

// resident and waiting count the model's queued and backlogged packets.
func (m *refModel) resident() (n int) {
	for _, q := range m.queues {
		n += len(q)
	}
	return n
}

func (m *refModel) waiting() (n int) {
	for _, bl := range m.backlog {
		n += len(bl)
	}
	return n
}

// checkAgainstReference runs net under alg to completion or budget steps,
// holding it to the reference model after every step: the model's state,
// the step's arrivals in order, the step sample, the step's admission
// counts and the run's fault drops. It returns the model.
func checkAgainstReference(t *testing.T, net *sim.Network, cfg sim.Config, alg sim.Algorithm, budget int) *refModel {
	t.Helper()
	src := &injectionRecorder{}
	policy := sim.WrapSource(net, func(s sim.Source) sim.Source { src.Source = s; return src })
	model := newRefModel(net, cfg, policy)
	if err := model.compare(net); err != nil {
		t.Fatalf("placement: %v", err)
	}
	if m := net.Metrics; m.Offered != model.offered || m.Admitted != model.admitted || m.Refused != model.refused {
		t.Fatalf("placement: offered/admitted/refused %d/%d/%d, model %d/%d/%d", m.Offered, m.Admitted, m.Refused, model.offered, model.admitted, model.refused)
	}
	rec := &decisionRecorder{Algorithm: alg}
	var samples obs.Records
	net.SetMetricsSink(&samples)
	var moves []sim.Move
	net.SetObserver(func(r sim.StepRecord) { moves = append(moves[:0], r.Moves...) })
	for !net.Done() && net.Step() < budget {
		rec.reset()
		src.injs = src.injs[:0]
		dropped := net.Metrics.Dropped
		if err := net.StepOnce(rec); err != nil {
			t.Fatal(err)
		}
		arrivals, delivered, maxQueue, err := model.apply(rec, src.injs)
		if err != nil {
			t.Fatal(err)
		}
		if err := model.compare(net); err != nil {
			t.Fatal(err)
		}
		step := net.Step()
		if !slices.Equal(moves, arrivals) {
			t.Fatalf("step %d: arrivals\n%v\nmodel\n%v", step, moves, arrivals)
		}
		if s := samples.Steps[len(samples.Steps)-1]; s.Step != step || s.Delivered != delivered || s.MaxQueue != maxQueue || s.InFlight != model.resident() {
			t.Fatalf("step %d: sample says step %d, %d delivered, max queue %d, %d in flight; model %d delivered, max queue %d, %d in flight",
				step, s.Step, s.Delivered, s.MaxQueue, s.InFlight, delivered, maxQueue, model.resident())
		}
		if s := samples.Steps[len(samples.Steps)-1]; s.Offered != model.offered || s.Admitted != model.admitted || s.Refused != model.refused ||
			s.Backlog != model.waiting() || net.Metrics.Dropped-dropped != model.dropped {
			t.Fatalf("step %d: offered/admitted/refused/dropped/backlog %d/%d/%d/%d/%d, model %d/%d/%d/%d/%d", step,
				s.Offered, s.Admitted, s.Refused, net.Metrics.Dropped-dropped, s.Backlog,
				model.offered, model.admitted, model.refused, model.dropped, model.waiting())
		}
		if net.Metrics.FaultDrops != model.faultDrops {
			t.Fatalf("step %d: %d fault drops, model %d", step, net.Metrics.FaultDrops, model.faultDrops)
		}
	}
	return model
}

// placePairs places the pairs before step 1 in order, as PacketIDs 1, 2, ….
func placePairs(t *testing.T, net *sim.Network, pairs []grid.Pair) {
	t.Helper()
	for _, pr := range pairs {
		if err := net.Place(net.NewPacket(pr.Src, pr.Dst)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReferenceStep holds the engine to the reference model on every
// committed scenario with a digest (the n=256 torus is left out under the
// race detector) and on small instances of both queue models, mesh and
// torus, some with arrivals under each admission policy and a fault
// schedule.
func TestReferenceStep(t *testing.T) {
	central := func(topo grid.Topology) sim.Config {
		return sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	}
	thm15 := func(topo grid.Topology) sim.Config { return routers.Thm15Config(topo, 2) }
	stalls := &fault.Config{Seed: 11, Horizon: 60, LinkFailures: 16, MeanDownSteps: 3, NodeStalls: 4, MeanStallSteps: 4}
	busy := &fault.Config{Seed: 4, Horizon: 40, LinkFailures: 20, MeanDownSteps: 3, NodeStalls: 20, MeanStallSteps: 4}
	for _, tc := range []struct {
		name   string
		topo   grid.Topology
		cfg    func(grid.Topology) sim.Config
		policy dex.Policy
		faults *fault.Config
		rate   float64 // Bernoulli arrivals over steps 1..40 on top of the placement
		admit  sim.AdmissionPolicy
		h      int // place h-h traffic instead of a permutation when > 1
	}{
		{"dimorder/mesh8", grid.NewSquareMesh(8), central, routers.DimOrderFIFO{}, nil, 0, sim.AdmitRetry, 1},
		{"zigzag/torus10", grid.NewSquareTorus(10), central, routers.ZigZag{}, nil, 0, sim.AdmitRetry, 1},
		{"thm15/mesh12", grid.NewSquareMesh(12), thm15, routers.Thm15{}, nil, 0, sim.AdmitRetry, 1},
		{"thm15/torus8", grid.NewSquareTorus(8), thm15, routers.Thm15{}, nil, 0, sim.AdmitRetry, 1},
		// Moves into a stalled node are dropped, deliveries included.
		{"zigzag/torus12-faults", grid.NewSquareTorus(12), central, routers.ZigZag{FaultAware: true}, stalls, 0, sim.AdmitRetry, 1},
		// Stalled sources meet arrivals under both policies.
		{"zigzag/mesh10-retry-faults", grid.NewSquareMesh(10), central, routers.ZigZag{FaultAware: true}, busy, 0.1, sim.AdmitRetry, 1},
		{"zigzag/mesh10-drop-faults", grid.NewSquareMesh(10), central, routers.ZigZag{FaultAware: true}, busy, 0.1, sim.AdmitDrop, 1},
		// The origin buffer never refuses. (Theorem 15's queue bound
		// presumes reliable links, so thm15 runs without faults.)
		{"thm15/torus8-retry", grid.NewSquareTorus(8), thm15, routers.Thm15{}, nil, 0.1, sim.AdmitRetry, 1},
		// h-h traffic overflows the central queues at placement: the
		// overflow waits in the step-0 backlogs, behind stalls too.
		{"zigzag/mesh8-hh3", grid.NewSquareMesh(8), central, routers.ZigZag{}, nil, 0, sim.AdmitRetry, 3},
		{"zigzag/mesh8-hh3-faults", grid.NewSquareMesh(8), central, routers.ZigZag{FaultAware: true}, busy, 0, sim.AdmitRetry, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(tc.topo)
			if tc.faults != nil {
				sched, err := fault.Generate(tc.topo, *tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = sched
			}
			net := sim.MustNew(cfg)
			placePairs(t, net, workload.RandomHH(tc.topo, tc.h, 5).Pairs)
			if tc.rate > 0 {
				if err := net.AttachSource(workload.NewBernoulli(tc.topo.N(), tc.rate, 40, 7), tc.admit); err != nil {
					t.Fatal(err)
				}
			}
			model := checkAgainstReference(t, net, cfg, dex.NewAdapter(tc.policy), 100*tc.topo.N())
			if !net.Done() {
				t.Fatalf("not done after %d steps", net.Step())
			}
			if tc.faults != nil && model.stallDrops == 0 {
				t.Fatal("no move was ever scheduled into a stalled node")
			}
		})
	}

	// Two backlogs drain in one step into nodes off the occupied list: node
	// 9's, formed at step 1 behind its stall, and node 3's, formed at step
	// 3. They enter in ascending node order, whatever order they formed in.
	t.Run("dimorder/mesh4-wake-order", func(t *testing.T) {
		topo := grid.NewSquareMesh(4)
		cfg := central(topo)
		cfg.Faults = (&fault.Schedule{N: topo.N(), Events: []fault.Event{
			{Step: 1, Kind: fault.NodeStall, Node: 9, Dir: grid.NoDir},
			{Step: 3, Kind: fault.NodeWake, Node: 9, Dir: grid.NoDir},
		}}).Finalize()
		net := sim.MustNew(cfg)
		if err := net.AttachSource(sim.TimedSource{1: {{Src: 9, Dst: 0}}, 3: {{Src: 3, Dst: 15}}}, sim.AdmitRetry); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, net, cfg, dex.NewAdapter(routers.DimOrderFIFO{}), 100)
		if !net.Done() {
			t.Fatalf("not done after %d steps", net.Step())
		}
	})

	paths, err := filepath.Glob("../../testdata/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	rows := 0
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name == "smoke" {
			continue // smoke has no digest
		}
		rows++
		if sim.RaceDetector && spec.N > 64 {
			continue // the n=256 torus takes about a minute under the race detector
		}
		t.Run(spec.Name, func(t *testing.T) {
			run, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rspec, _ := routers.Lookup(spec.Router)
			cfg := rspec.Config(run.Net.Topo, spec.K)
			cfg.Faults = run.Faults
			checkAgainstReference(t, run.Net, cfg, run.NewAlg(), run.Budget)
			if w := spec.Workload; (!w.Dynamic() || w.Drain) && !run.Net.Done() {
				t.Fatalf("not done after %d steps", run.Budget)
			}
		})
	}
	if rows < 19 {
		t.Fatalf("found %d scenarios with a digest, want the 19 committed ones", rows)
	}
}

// FuzzReferenceStep holds the engine to the reference model on a random
// permutation under a destination-exchangeable router, on a mesh or torus
// of side 2–10 with queues of 1–4, with Bernoulli arrivals of rate 0–0.35
// over steps 1..30 under either admission policy, h-h placement of up to
// three packets a node (whose overflow waits in the step-0 backlogs), and,
// for a nonzero fault seed, a schedule of transient link failures and node stalls. Only the
// swap-rule policies keep their queue bound under faults
// (docs/ROBUSTNESS.md), so a faulted case routes with dimension order or,
// from k=3, fault-aware zigzag.
func FuzzReferenceStep(f *testing.F) {
	f.Add(false, uint8(6), uint8(1), uint8(0), int64(1), uint8(0), false, int64(0), uint8(0))
	f.Add(true, uint8(8), uint8(0), uint8(1), int64(2), uint8(0), false, int64(0), uint8(0))
	f.Add(false, uint8(7), uint8(3), uint8(2), int64(3), uint8(0), false, int64(0), uint8(0))
	f.Add(true, uint8(4), uint8(2), uint8(3), int64(4), uint8(0), false, int64(0), uint8(0))
	f.Add(false, uint8(5), uint8(1), uint8(4), int64(5), uint8(0), false, int64(0), uint8(0))
	f.Add(false, uint8(6), uint8(0), uint8(1), int64(6), uint8(3), false, int64(6), uint8(2))
	f.Add(true, uint8(6), uint8(1), uint8(0), int64(7), uint8(4), true, int64(7), uint8(0))
	f.Add(false, uint8(5), uint8(0), uint8(3), int64(8), uint8(6), false, int64(0), uint8(0))
	f.Add(true, uint8(5), uint8(3), uint8(2), int64(9), uint8(5), true, int64(9), uint8(1))
	var names []string
	for _, name := range routers.Names() {
		if rspec, _ := routers.Lookup(name); rspec.DestinationExchangeable() {
			names = append(names, name)
		}
	}
	f.Fuzz(func(t *testing.T, torus bool, nRaw, kRaw, routerRaw uint8, seed int64, rateRaw uint8, drop bool, faultSeed int64, hRaw uint8) {
		n := 2 + int(nRaw)%9 // 2..10
		k := 1 + int(kRaw)%4 // 1..4
		name := names[int(routerRaw)%len(names)]
		if faultSeed != 0 {
			name = routers.NameDimOrder
			if routerRaw%2 == 1 {
				name, k = routers.NameZigZag, max(k, 3)
			}
		}
		rspec, _ := routers.Lookup(name)
		if rspec.Config(nil, k).MaxStray > 0 {
			torus = false // the stray bound is a mesh rule
		}
		var topo grid.Topology = grid.NewSquareMesh(n)
		if torus {
			topo = grid.NewSquareTorus(n)
		}
		cfg := rspec.Config(topo, k)
		alg := rspec.New()
		if faultSeed != 0 {
			sched, err := fault.Generate(topo, fault.Config{
				Seed: faultSeed, Horizon: 30, LinkFailures: n, MeanDownSteps: 3, NodeStalls: n, MeanStallSteps: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = sched
			if rspec.NewFaultAware != nil {
				alg = rspec.NewFaultAware()
			}
		}
		net := sim.MustNew(cfg)
		placePairs(t, net, workload.RandomHH(topo, 1+int(hRaw)%3, seed).Pairs)
		if rate := float64(rateRaw%8) / 20; rate > 0 {
			policy := sim.AdmitRetry
			if drop {
				policy = sim.AdmitDrop
			}
			if err := net.AttachSource(workload.NewBernoulli(topo.N(), rate, 30, seed), policy); err != nil {
				t.Fatal(err)
			}
		}
		checkAgainstReference(t, net, cfg, alg, 20*topo.N()+100)
	})
}
