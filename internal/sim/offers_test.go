package sim_test

import (
	"slices"
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/fault"
	"meshroute/internal/grid"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// acceptCall is one inqueue-policy call: the target, the offers it was
// shown and what it admitted.
type acceptCall struct {
	target grid.NodeID
	offers []sim.Offer
	accept []bool
}

// recordingAlg is its router, recording every Accept call.
type recordingAlg struct {
	sim.Algorithm
	calls []acceptCall
}

func (r *recordingAlg) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, acc []bool) {
	r.Algorithm.Accept(net, n, offers, acc)
	r.calls = append(r.calls, acceptCall{n.ID, slices.Clone(offers), slices.Clone(acc)})
}

// TestOfferGroupingMatchesMap checks part (c)'s offer grouping against a
// map over the step's scheduled moves, which an exchange hook copies
// before part (c) reads them. Moves into a stalled node are dropped,
// deliveries lead the arrivals without an Accept, and every other target
// gets one Accept call, in first-seen order, with its offers in move order;
// its admitted offers follow the deliveries, target by target.
func TestOfferGroupingMatchesMap(t *testing.T) {
	central := func(topo grid.Topology) sim.Config {
		return sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
	}
	thm15 := func(topo grid.Topology) sim.Config { return routers.Thm15Config(topo, 2) }
	cases := []struct {
		name   string
		topo   grid.Topology
		cfg    func(grid.Topology) sim.Config
		policy dex.Policy
		faults bool
	}{
		{"dimorder/mesh8", grid.NewSquareMesh(8), central, routers.DimOrderFIFO{}, false},
		{"zigzag/torus10", grid.NewSquareTorus(10), central, routers.ZigZag{}, false},
		{"zigzag/torus12-faults", grid.NewSquareTorus(12), central, routers.ZigZag{FaultAware: true}, true},
		{"thm15/mesh12", grid.NewSquareMesh(12), thm15, routers.Thm15{}, false},
		{"thm15/torus8", grid.NewSquareTorus(8), thm15, routers.Thm15{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(tc.topo)
			if tc.faults {
				sched, err := fault.Generate(tc.topo, fault.Config{
					Seed: 11, Horizon: 60, LinkFailures: 16, MeanDownSteps: 3, NodeStalls: 4, MeanStallSteps: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = sched
			}
			net := sim.MustNew(cfg)
			if err := workload.Random(tc.topo, 5).Place(net); err != nil {
				t.Fatal(err)
			}
			var moves []sim.Move
			var stalled []bool
			net.SetExchange(func(net *sim.Network, step int, ms []sim.Move) {
				moves = append(moves[:0], ms...)
				stalled = stalled[:0]
				for _, m := range ms {
					stalled = append(stalled, net.Stalled(m.To))
				}
			})
			var arrivals []sim.Move
			net.SetObserver(func(rec sim.StepRecord) { arrivals = append(arrivals[:0], rec.Moves...) })
			alg := &recordingAlg{Algorithm: dex.NewAdapter(tc.policy)}
			sawStall := false
			for !net.Done() {
				if net.Step() > 100*tc.topo.N() {
					t.Fatalf("not done after %d steps", net.Step())
				}
				alg.calls = alg.calls[:0]
				if err := net.StepOnce(alg); err != nil {
					t.Fatal(err)
				}
				want, wantArrivals := groupByMap(net, moves, stalled)
				if !slices.EqualFunc(alg.calls, want, func(a, b acceptCall) bool {
					return a.target == b.target && slices.Equal(a.offers, b.offers)
				}) {
					t.Fatalf("step %d: Accept calls\n%v\nwant\n%v", net.Step(), alg.calls, want)
				}
				for _, c := range alg.calls {
					for i, ok := range c.accept {
						if ok {
							o := c.offers[i]
							wantArrivals = append(wantArrivals, sim.Move{P: o.P, From: o.From, To: c.target, Travel: o.Travel})
						}
					}
				}
				if !slices.Equal(arrivals, wantArrivals) {
					t.Fatalf("step %d: arrivals\n%v\nwant\n%v", net.Step(), arrivals, wantArrivals)
				}
				sawStall = sawStall || slices.Contains(stalled, true)
			}
			if tc.faults && !sawStall {
				t.Fatal("no move was ever scheduled into a stalled node")
			}
		})
	}
}

// groupByMap is the naive grouping: the moves' deliveries in move order,
// and one Accept call per target in first-seen order, holding that
// target's offers in move order, with the policy's decisions left out.
func groupByMap(net *sim.Network, moves []sim.Move, stalled []bool) ([]acceptCall, []sim.Move) {
	var deliveries []sim.Move
	var order []grid.NodeID
	offers := map[grid.NodeID][]sim.Offer{}
	for i, m := range moves {
		switch {
		case stalled[i]:
		case net.P.Dst[m.P] == m.To:
			deliveries = append(deliveries, m)
		default:
			if _, ok := offers[m.To]; !ok {
				order = append(order, m.To)
			}
			offers[m.To] = append(offers[m.To], sim.Offer{P: m.P, From: m.From, Travel: m.Travel})
		}
	}
	calls := make([]acceptCall, len(order))
	for i, id := range order {
		calls[i] = acceptCall{target: id, offers: offers[id]}
	}
	return calls, deliveries
}
