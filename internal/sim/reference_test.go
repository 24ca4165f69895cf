package sim_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"meshroute/internal/dex"
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
// no packet store, offer chain or profitable-set cache: its queues are one
// FIFO list per node, its packets one record each, its geometry coordinate
// arithmetic.
// It covers static, fault-free runs without an exchange hook, under both
// queue models.

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

// refPacket is the model's record of one packet.
type refPacket struct {
	src, dst, at             grid.NodeID
	qtag                     uint8
	arrived                  grid.Dir
	arrivedStep, deliverStep int
	hops                     int
}

// refMove is one scheduled or applied transmission.
type refMove struct {
	p        sim.PacketID
	from, to grid.NodeID
	travel   grid.Dir
}

// refModel is the reference engine's state.
type refModel struct {
	side      int
	torus     bool
	k         int
	perInlink bool
	minimal   bool
	maxStray  int

	queues [][]sim.PacketID // per node, FIFO
	pkts   []refPacket      // by PacketID; 0 is no packet
	step   int
}

// newRefModel places the network's packets the way Section 2 starts a
// static run: each at its source, in ID order, in the central queue or the
// origin buffer; a packet already at its destination is delivered at step 0.
func newRefModel(net *sim.Network, cfg sim.Config) *refModel {
	m := &refModel{
		side:      cfg.Topo.Width(),
		torus:     cfg.Topo.Wraparound(),
		k:         cfg.K,
		perInlink: cfg.Queues == sim.PerInlinkQueues,
		minimal:   cfg.RequireMinimal,
		maxStray:  cfg.MaxStray,
		queues:    make([][]sim.PacketID, cfg.Topo.N()),
		pkts:      make([]refPacket, net.P.Len()+1),
	}
	for p := sim.PacketID(1); int(p) <= net.P.Len(); p++ {
		src, dst := net.P.Src[p], net.P.Dst[p]
		rp := &m.pkts[p]
		*rp = refPacket{src: src, dst: dst, at: src, arrived: grid.NoDir, deliverStep: -1}
		if src == dst {
			rp.deliverStep = 0
			continue
		}
		if m.perInlink {
			rp.qtag = sim.OriginTag
		}
		m.queues[src] = append(m.queues[src], p)
	}
	return m
}

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

// apply re-applies one step's recorded decisions and returns the step's
// delivered count and largest bounded queue.
func (m *refModel) apply(rec *decisionRecorder) (delivered, maxQueue int, err error) {
	m.step++
	t := m.step

	// Part (a): every nonempty node decides once; each answer must be legal.
	var moves []refMove
	asked := make([]bool, len(m.queues))
	for _, sc := range rec.scheds {
		q := m.queues[sc.node]
		if len(q) == 0 || asked[sc.node] {
			return 0, 0, fmt.Errorf("step %d: Schedule asked of node %d (%d residents, asked before: %v)", t, sc.node, len(q), asked[sc.node])
		}
		asked[sc.node] = true
		for d := grid.Dir(0); d < grid.NumDirs; d++ {
			i := sc.sched[d]
			if i < 0 {
				continue
			}
			if i >= len(q) || slices.Contains(sc.sched[:d], i) {
				return 0, 0, fmt.Errorf("step %d: node %d scheduled index %d of %d on %v twice or out of range", t, sc.node, i, len(q), d)
			}
			p := q[i]
			rp := &m.pkts[p]
			to, ok := m.neighbor(sc.node, d)
			switch {
			case !ok:
				return 0, 0, fmt.Errorf("step %d: node %d scheduled packet %d on missing outlink %v", t, sc.node, p, d)
			case m.minimal && !m.profitable(sc.node, rp.dst).Has(d):
				return 0, 0, fmt.Errorf("step %d: node %d scheduled packet %d non-minimally on %v", t, sc.node, p, d)
			case !m.minimal && m.maxStray > 0 && !m.withinStray(rp, to):
				return 0, 0, fmt.Errorf("step %d: node %d moved packet %d past its stray bound", t, sc.node, p)
			}
			moves = append(moves, refMove{p, sc.node, to, d})
		}
	}
	for id, q := range m.queues {
		if len(q) > 0 && !asked[id] {
			return 0, 0, fmt.Errorf("step %d: node %d holds %d packets but was never asked to schedule", t, id, len(q))
		}
	}

	// Part (c): deliveries bypass the inqueue policy and lead the
	// arrivals; every other target sees its offers in move order, targets
	// in first-seen order.
	var arrivals []refMove
	var order []grid.NodeID
	offers := map[grid.NodeID][]refMove{}
	for _, mv := range moves {
		if mv.to == m.pkts[mv.p].dst {
			arrivals = append(arrivals, mv)
			continue
		}
		if _, ok := offers[mv.to]; !ok {
			order = append(order, mv.to)
		}
		offers[mv.to] = append(offers[mv.to], mv)
	}
	if len(rec.accepts) != len(order) {
		return 0, 0, fmt.Errorf("step %d: %d Accept calls, want one for each of %d targets", t, len(rec.accepts), len(order))
	}
	for i, id := range order {
		call, offs := rec.accepts[i], offers[id]
		shown := rec.offers[call.at : call.at+call.n]
		if call.target != id || len(shown) != len(offs) {
			return 0, 0, fmt.Errorf("step %d: Accept call %d went to node %d with %d offers, want node %d with %d", t, i, call.target, len(shown), id, len(offs))
		}
		for j, mv := range offs {
			if o := shown[j]; o.P != mv.p || o.From != mv.from || o.Travel != mv.travel {
				return 0, 0, fmt.Errorf("step %d: node %d offer %d is %+v, want %+v", t, id, j, o, mv)
			}
			if rec.accepted[call.at+j] {
				arrivals = append(arrivals, mv)
			}
		}
	}

	// Part (d): every departure leaves its sender's queue before any
	// arrival joins one.
	for _, a := range arrivals {
		q := m.queues[a.from]
		i := slices.Index(q, a.p)
		if i < 0 {
			return 0, 0, fmt.Errorf("step %d: packet %d departs node %d, which does not hold it", t, a.p, a.from)
		}
		m.queues[a.from] = slices.Delete(q, i, i+1)
	}
	for _, a := range arrivals {
		rp := &m.pkts[a.p]
		rp.hops++
		rp.arrived = a.travel
		rp.arrivedStep = t
		rp.at = a.to
		if a.to == rp.dst {
			rp.deliverStep = t
			delivered++
			continue
		}
		rp.qtag = m.tagOf(a.travel)
		m.queues[a.to] = append(m.queues[a.to], a.p)
	}

	// The policies must not overflow a queue.
	for id := range m.queues {
		for tag, c := range m.tagCounts(grid.NodeID(id)) {
			if !m.bounded(uint8(tag)) {
				continue
			}
			if c > m.k {
				return 0, 0, fmt.Errorf("step %d: node %d queue %d holds %d > k=%d", t, id, tag, c, m.k)
			}
			maxQueue = max(maxQueue, c)
		}
	}
	return delivered, maxQueue, nil
}

// compare holds the engine to the model: every queue's contents in order,
// every per-tag count and every packet's position and history.
func (m *refModel) compare(net *sim.Network) error {
	t := net.Step()
	for id, q := range m.queues {
		node := net.Node(grid.NodeID(id))
		if got := net.PacketsOf(node); !slices.Equal(got, q) {
			return fmt.Errorf("step %d: node %d holds %v, model %v", t, id, got, q)
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
			deliverStep: int(net.P.DeliverStep[p]), hops: int(net.P.Hops[p]),
		}
		if got != *rp {
			return fmt.Errorf("step %d: packet %d is %+v, model %+v", t, p, got, *rp)
		}
	}
	return nil
}

// checkAgainstReference runs net under alg to completion or budget steps,
// holding it to the reference model after every step.
func checkAgainstReference(t *testing.T, net *sim.Network, cfg sim.Config, alg sim.Algorithm, budget int) {
	t.Helper()
	model := newRefModel(net, cfg)
	if err := model.compare(net); err != nil {
		t.Fatalf("placement: %v", err)
	}
	rec := &decisionRecorder{Algorithm: alg}
	var samples obs.Records
	net.SetMetricsSink(&samples)
	for !net.Done() && net.Step() < budget {
		rec.reset()
		if err := net.StepOnce(rec); err != nil {
			t.Fatal(err)
		}
		delivered, maxQueue, err := model.apply(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := model.compare(net); err != nil {
			t.Fatal(err)
		}
		if s := samples.Steps[len(samples.Steps)-1]; s.Step != net.Step() || s.Delivered != delivered || s.MaxQueue != maxQueue {
			t.Fatalf("step %d: sample says step %d, %d delivered, max queue %d; model %d delivered, max queue %d",
				net.Step(), s.Step, s.Delivered, s.MaxQueue, delivered, maxQueue)
		}
	}
}

// TestReferenceStep holds the engine to the reference model on every
// static, fault-free committed scenario (the n=256 torus is left out under
// the race detector) and on four small instances of both queue models,
// mesh and torus.
func TestReferenceStep(t *testing.T) {
	central := func(topo grid.Topology) sim.Config {
		return sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	}
	thm15 := func(topo grid.Topology) sim.Config { return routers.Thm15Config(topo, 2) }
	for _, tc := range []struct {
		name   string
		topo   grid.Topology
		cfg    func(grid.Topology) sim.Config
		policy dex.Policy
	}{
		{"dimorder/mesh8", grid.NewSquareMesh(8), central, routers.DimOrderFIFO{}},
		{"zigzag/torus10", grid.NewSquareTorus(10), central, routers.ZigZag{}},
		{"thm15/mesh12", grid.NewSquareMesh(12), thm15, routers.Thm15{}},
		{"thm15/torus8", grid.NewSquareTorus(8), thm15, routers.Thm15{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(tc.topo)
			net := sim.MustNew(cfg)
			if err := workload.Random(tc.topo, 5).Place(net); err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, net, cfg, dex.NewAdapter(tc.policy), 100*tc.topo.N())
			if !net.Done() {
				t.Fatalf("not done after %d steps", net.Step())
			}
		})
	}

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
		if spec.Workload.Dynamic() || spec.Faults != nil || spec.Name == "smoke" {
			continue // the model covers static, fault-free runs; smoke has no digest
		}
		rows++
		if raceDetector && spec.N > 64 {
			continue // the n=256 torus takes about a minute under the race detector
		}
		t.Run(spec.Name, func(t *testing.T) {
			run, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			rspec, _ := routers.Lookup(spec.Router)
			checkAgainstReference(t, run.Net, rspec.Config(run.Net.Topo, spec.K), run.NewAlg(), run.Budget)
			if !run.Net.Done() {
				t.Fatalf("not done after %d steps", run.Budget)
			}
		})
	}
	if rows < 10 {
		t.Fatalf("found %d static, fault-free scenarios, want the 10 committed ones", rows)
	}
}

// FuzzReferenceStep holds the engine to the reference model on a random
// permutation under a destination-exchangeable router, on a mesh or torus
// of side 2–10 with queues of 1–4.
func FuzzReferenceStep(f *testing.F) {
	f.Add(false, uint8(6), uint8(1), uint8(0), int64(1))
	f.Add(true, uint8(8), uint8(0), uint8(1), int64(2))
	f.Add(false, uint8(7), uint8(3), uint8(2), int64(3))
	f.Add(true, uint8(4), uint8(2), uint8(3), int64(4))
	f.Add(false, uint8(5), uint8(1), uint8(4), int64(5))
	var names []string
	for _, name := range routers.Names() {
		if rspec, _ := routers.Lookup(name); rspec.DestinationExchangeable() {
			names = append(names, name)
		}
	}
	f.Fuzz(func(t *testing.T, torus bool, nRaw, kRaw, routerRaw uint8, seed int64) {
		n := 2 + int(nRaw)%9 // 2..10
		k := 1 + int(kRaw)%4 // 1..4
		rspec, _ := routers.Lookup(names[int(routerRaw)%len(names)])
		if rspec.Config(nil, k).MaxStray > 0 {
			torus = false // the stray bound is a mesh rule
		}
		var topo grid.Topology = grid.NewSquareMesh(n)
		if torus {
			topo = grid.NewSquareTorus(n)
		}
		cfg := rspec.Config(topo, k)
		net := sim.MustNew(cfg)
		if err := workload.Random(topo, seed).Place(net); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, net, cfg, rspec.New(), 20*topo.N()+100)
	})
}
