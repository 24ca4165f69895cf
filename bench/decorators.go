package main

import (
	"time"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/sim"
)

// countedAlg counts the calls the engine makes into the routing algorithm
// and the Accept outcomes (accepted over offered is the step's useful
// outcomes per attempt). It does not time them — see profile.go for why —
// and deliberately does not implement sim.ParallelCloner, the only
// interface the engine type-asserts, so at one worker it is transparent to
// the run.
type countedAlg struct {
	alg                     sim.Algorithm
	calls, offers, accepted int64
}

func (a *countedAlg) Name() string { return a.alg.Name() }

func (a *countedAlg) InitNode(net *sim.Network, n *sim.Node) {
	a.calls++
	a.alg.InitNode(net, n)
}

func (a *countedAlg) Schedule(net *sim.Network, n *sim.Node) [grid.NumDirs]int {
	a.calls++
	return a.alg.Schedule(net, n)
}

func (a *countedAlg) Accept(net *sim.Network, n *sim.Node, offers []sim.Offer, accept []bool) {
	a.calls++
	a.alg.Accept(net, n, offers, accept)
	a.offers += int64(len(offers))
	for _, ok := range accept {
		if ok {
			a.accepted++
		}
	}
}

func (a *countedAlg) Update(net *sim.Network, n *sim.Node) {
	a.calls++
	a.alg.Update(net, n)
}

// timedSink times the metrics encoder the run writes its step samples to:
// one call per step, microseconds each, so a clock read per call is cheap
// and exact enough.
type timedSink struct {
	jsonl     *obs.JSONL
	ns, calls int64
}

func (s *timedSink) Step(x obs.StepSample) {
	t := time.Now()
	s.jsonl.Step(x)
	s.ns += int64(time.Since(t))
	s.calls++
}

func (s *timedSink) Span(x obs.Span)      { s.jsonl.Span(x) }
func (s *timedSink) Event(x obs.Event)    { s.jsonl.Event(x) }
func (s *timedSink) Run(x obs.RunSummary) { s.jsonl.Run(x) }
