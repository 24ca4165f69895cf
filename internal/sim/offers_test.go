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

// acceptCall is one inqueue-policy call: the target and the offers it was
// shown.
type acceptCall struct {
	target grid.NodeID
	offers []sim.Offer
}

// TestOfferGroupingMatchesMap checks part (c)'s offer grouping against a
// map over the step's scheduled moves, which an exchange hook copies
// before part (c) reads them, on a faulted run. Moves into a stalled node
// are dropped, deliveries lead the arrivals without an Accept, and every
// other target gets one Accept call, in first-seen order, with its offers
// in move order; its admitted offers follow the deliveries, target by
// target. (TestReferenceStep covers the fault-free runs; this case stays
// until the reference model covers stalls.)
func TestOfferGroupingMatchesMap(t *testing.T) {
	t.Run("zigzag/torus12-faults", func(t *testing.T) {
		topo := grid.NewSquareTorus(12)
		cfg := sim.Config{Topo: topo, K: 2, Queues: sim.CentralQueue, RequireMinimal: true, CheckInvariants: true}
		sched, err := fault.Generate(topo, fault.Config{
			Seed: 11, Horizon: 60, LinkFailures: 16, MeanDownSteps: 3, NodeStalls: 4, MeanStallSteps: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		net := sim.MustNew(cfg)
		if err := workload.Random(topo, 5).Place(net); err != nil {
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
		alg := &decisionRecorder{Algorithm: dex.NewAdapter(routers.ZigZag{FaultAware: true})}
		sawStall := false
		for !net.Done() {
			if net.Step() > 100*topo.N() {
				t.Fatalf("not done after %d steps", net.Step())
			}
			alg.reset()
			if err := net.StepOnce(alg); err != nil {
				t.Fatal(err)
			}
			want, wantArrivals := groupByMap(net, moves, stalled)
			if len(alg.accepts) != len(want) {
				t.Fatalf("step %d: %d Accept calls, want %d", net.Step(), len(alg.accepts), len(want))
			}
			for i, c := range alg.accepts {
				offers := alg.offers[c.at : c.at+c.n]
				if c.target != want[i].target || !slices.Equal(offers, want[i].offers) {
					t.Fatalf("step %d: Accept call %d to node %d with %v, want node %d with %v",
						net.Step(), i, c.target, offers, want[i].target, want[i].offers)
				}
				for j, ok := range alg.accepted[c.at : c.at+c.n] {
					if ok {
						o := offers[j]
						wantArrivals = append(wantArrivals, sim.Move{P: o.P, From: o.From, To: c.target, Travel: o.Travel})
					}
				}
			}
			if !slices.Equal(arrivals, wantArrivals) {
				t.Fatalf("step %d: arrivals\n%v\nwant\n%v", net.Step(), arrivals, wantArrivals)
			}
			sawStall = sawStall || slices.Contains(stalled, true)
		}
		if !sawStall {
			t.Fatal("no move was ever scheduled into a stalled node")
		}
	})
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
