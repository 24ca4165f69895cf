package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"meshroute/internal/grid"
)

type badIndexAlg struct{ greedyXY }

func (badIndexAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	return [grid.NumDirs]int{99, -1, -1, -1}
}

func TestOutOfRangeScheduleRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(badIndexAlg{}); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want out-of-range error, got %v", err)
	}
}

// failingScheduleAlg schedules an out-of-range index at the call-th node
// it schedules in the given step.
type failingScheduleAlg struct {
	greedyXY
	step, call, calls int
}

func (a *failingScheduleAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	if net.Step() == a.step {
		if a.calls++; a.calls == a.call {
			return [grid.NumDirs]int{99, -1, -1, -1}
		}
	}
	return a.greedyXY.Schedule(net, n)
}

// TestScheduleErrorLeavesOccupiedListSound fails part (a) at the third
// occupied node of step 2, after its sweep has dropped emptied nodes ahead
// of it: the occupied list must still name every nonempty node exactly
// once, and the diagnostics must read the same nodes.
func TestScheduleErrorLeavesOccupiedListSound(t *testing.T) {
	net := buildReversal(t, 8, 2)
	alg := &failingScheduleAlg{step: 2, call: 3}
	if err := net.StepOnce(alg); err != nil {
		t.Fatal(err)
	}
	if net.node(net.occ[0]).qLen != 0 {
		t.Fatal("the first listed node did not empty in step 1; the sweep would compact nothing before the error")
	}
	err := net.StepOnce(alg)
	if err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("want the out-of-range error, got %v", err)
	}
	requireSoundOccupiedList(t, net)
}

// updateCountingAlg counts its Update calls; at the given step, the
// call-th Update corrupts the cached profitable set of the first resident
// of the next occupied node, so that the invariant checker fails there.
type updateCountingAlg struct {
	greedyXY
	step, call, updates int
	victim              PacketID
	victimAt            grid.NodeID
	updatesBeforeVictim int
}

func (a *updateCountingAlg) Update(net *Network, n *Node) {
	a.updates++
	if net.Step() != a.step || a.updates != a.call {
		return
	}
	occ := net.occ
	i := slices.Index(occ, n.ID)
	for _, id := range occ[i+1:] {
		a.updatesBeforeVictim++
		if q := net.PacketsOf(net.node(id)); len(q) > 0 {
			a.victim, a.victimAt = q[0], id
			net.P.Prof[q[0]] = net.P.Prof[q[0]].Set(grid.North).Set(grid.South)
			return
		}
	}
}

// TestInvariantErrorMidUpdate raises an invariant violation in the middle
// of part (e): the error text is the checker's, and the step returns after
// the Updates of the nodes before the violating one and none after it.
func TestInvariantErrorMidUpdate(t *testing.T) {
	net := buildReversal(t, 8, 2)
	net.cfg.CheckInvariants = true
	alg := &updateCountingAlg{step: 2, call: 3}
	if err := net.StepOnce(alg); err != nil {
		t.Fatal(err)
	}
	alg.updates = 0
	err := net.StepOnce(alg)
	if alg.victim == NoPacket {
		t.Fatal("no occupied node after the third Update to corrupt")
	}
	want := fmt.Sprintf("sim: invariant: packet %d at %v caches profitable set %v, fresh computation gives %v (step 2)",
		alg.victim.ID(), net.Topo.CoordOf(alg.victimAt), net.P.Prof[alg.victim], net.Topo.Profitable(alg.victimAt, net.P.Dst[alg.victim]))
	if err == nil || err.Error() != want {
		t.Fatalf("got error %v\nwant %s", err, want)
	}
	// Updates ran at the three nodes up to the corrupting one and at the
	// emptied nodes between it and the victim (updatesBeforeVictim - 1).
	if wantUpdates := alg.call + alg.updatesBeforeVictim - 1; alg.updates != wantUpdates {
		t.Fatalf("%d Updates ran in the failed step, want %d", alg.updates, wantUpdates)
	}
	requireSoundOccupiedList(t, net)
}

// requireSoundOccupiedList fails unless the raw occupied list holds no
// node twice and every node with a resident, CollectDiagnostics reports the
// queues of exactly those nodes, and Occupied() lists exactly them.
func requireSoundOccupiedList(t *testing.T, net *Network) {
	t.Helper()
	var want []grid.NodeID
	var queues []QueueDiag
	for id := range net.nodeCnt {
		node := net.peek(grid.NodeID(id))
		if node == nil || node.Len() == 0 {
			continue
		}
		want = append(want, grid.NodeID(id))
		for tag := uint8(0); tag < numTags; tag++ {
			if c := net.QueueLen(node, tag); c > 0 {
				queues = append(queues, QueueDiag{Node: grid.NodeID(id), Coord: net.Topo.CoordOf(grid.NodeID(id)), Tag: tag, Len: c})
			}
		}
	}
	listed := func(what string, got []grid.NodeID) {
		t.Helper()
		seen := map[grid.NodeID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("%s lists node %d twice: %v", what, id, got)
			}
			seen[id] = true
		}
		for _, id := range want {
			if !seen[id] {
				t.Fatalf("%s misses occupied node %d: %v", what, id, got)
			}
		}
	}
	listed("the occupied list", net.occ)
	slices.SortStableFunc(queues, func(a, b QueueDiag) int {
		if a.Len != b.Len {
			return b.Len - a.Len
		}
		return int(a.Node) - int(b.Node)
	})
	queues = queues[:min(len(queues), maxDiagQueues)]
	if got := net.CollectDiagnostics().TopQueues; !slices.Equal(got, queues) {
		t.Fatalf("diagnostics report queues %v, want %v", got, queues)
	}
	occ := net.Occupied()
	listed("Occupied()", occ)
	if len(occ) != len(want) {
		t.Fatalf("Occupied() lists %d nodes, %d hold packets", len(occ), len(want))
	}
}

type offMeshAlg struct{ greedyXY }

func (offMeshAlg) Schedule(net *Network, n *Node) [grid.NumDirs]int {
	sched := [grid.NumDirs]int{-1, -1, -1, -1}
	// Schedule on whatever outlink does NOT exist.
	for d := grid.Dir(0); d < grid.NumDirs; d++ {
		if _, ok := net.Topo.Neighbor(n.ID, d); !ok {
			sched[d] = 0
			return sched
		}
	}
	return sched
}

func TestMissingOutlinkRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	// Corner node: two missing outlinks.
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(offMeshAlg{}); err == nil || !strings.Contains(err.Error(), "missing outlink") {
		t.Fatalf("want missing-outlink error, got %v", err)
	}
}

func TestExchangeBreakingMinimalityRejected(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 0)))
	// b heads south to (0,3), which lies BEHIND a's eastward move; b's own
	// southward move stays minimal toward (5,0).
	b := net.NewPacket(topo.ID(grid.XY(0, 5)), topo.ID(grid.XY(0, 3)))
	net.MustPlace(a)
	net.MustPlace(b)
	net.SetExchange(func(n *Network, step int, moves []Move) {
		if len(moves) != 2 {
			t.Fatalf("want both packets scheduled, got %v", moves)
		}
		n.ExchangeDst(a, b)
	})
	if err := net.StepOnce(greedyXY{}); err == nil || !strings.Contains(err.Error(), "non-minimal") {
		t.Fatalf("want exchange-minimality error, got %v", err)
	}
}

// TestDirectDstWriteCaughtByChecker pins the ExchangeFn contract from the
// other side: a hook that writes P.Dst itself leaves the packet's cached
// profitable set stale, and the invariant checker fails that same step.
func TestDirectDstWriteCaughtByChecker(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	// Two eastbound packets share a node; greedyXY sends a and b stays, so
	// nothing rewrites b's Prof before the checker reads it.
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 0)))
	b := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(6, 0)))
	net.MustPlace(a)
	net.MustPlace(b)
	net.SetExchange(func(n *Network, step int, moves []Move) {
		n.P.Dst[b] = topo.ID(grid.XY(0, 5))
	})
	err := net.StepOnce(greedyXY{})
	if err == nil || !strings.Contains(err.Error(), "caches profitable set") || net.Step() != 1 {
		t.Fatalf("want the checker's stale-Prof error at step 1, got %v at step %d", err, net.Step())
	}
}

// TestExchangeBreakingStrayRejected: under MaxStray a swap changes the
// rectangle withinStray tests, so part (b) re-checks every scheduled move
// against the new one. Here a has travelled two hops east when its
// destination becomes (0,1), whose rectangle with a's source ends at
// x = 0, so the move to x = 3 is two beyond δ = 1: the step that swaps
// fails, not the next Schedule.
func TestExchangeBreakingStrayRejected(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(8), K: 2, MaxStray: 1, CheckInvariants: true})
	topo := net.Topo
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(6, 0)))
	b := net.NewPacket(topo.ID(grid.XY(0, 7)), topo.ID(grid.XY(0, 1)))
	net.MustPlace(a)
	net.MustPlace(b)
	net.SetExchange(func(n *Network, step int, moves []Move) {
		if step == 3 {
			n.ExchangeDst(a, b)
		}
	})
	for step := 1; step < 3; step++ {
		if err := net.StepOnce(greedyXY{}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if got := topo.CoordOf(net.P.At[a]); got != grid.XY(2, 0) {
		t.Fatalf("a is at %v after two steps, the test needs (2,0)", got)
	}
	err := net.StepOnce(greedyXY{})
	if err == nil || !strings.Contains(err.Error(), "exchange left the scheduled move of packet 0") {
		t.Fatalf("want the post-exchange stray error at step 3, got %v", err)
	}
}

func TestPlaceAfterRunRejected(t *testing.T) {
	net := newTestNet(t, 6, 2)
	net.MustPlace(net.NewPacket(0, 7))
	if err := net.StepOnce(greedyXY{}); err != nil {
		t.Fatal(err)
	}
	if err := net.Place(net.NewPacket(1, 8)); err == nil {
		t.Fatal("Place after run start must fail")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil topo", Config{K: 1}, "nil topology"},
		{"K=0", Config{Topo: grid.NewSquareMesh(4), K: 0}, "queue capacity"},
		{"bad queue model", Config{Topo: grid.NewSquareMesh(4), K: 1, Queues: QueueModel(9)}, "queue model"},
		{"negative stray", Config{Topo: grid.NewSquareMesh(4), K: 1, MaxStray: -1}, "MaxStray"},
		{"negative watchdog", Config{Topo: grid.NewSquareMesh(4), K: 1, Watchdog: -5}, "watchdog"},
	}
	for _, c := range cases {
		net, err := New(c.cfg)
		if err == nil || net != nil {
			t.Fatalf("%s: want error, got net=%v err=%v", c.name, net, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with K=0 must panic")
		}
	}()
	MustNew(Config{Topo: grid.NewSquareMesh(4), K: 0})
}

// TestStaleProfIsInvariantError corrupts the cached profitable set of a
// resident packet by hand: the checker recomputes every resident's set from
// At and Dst each step, so the stale entry is an error that names the
// packet and the step rather than a silently misrouted packet.
func TestStaleProfIsInvariantError(t *testing.T) {
	net := newTestNet(t, 8, 2)
	topo := net.Topo
	// Two eastbound packets share a node; greedyXY sends the first and the
	// second stays, so nothing rewrites its Prof entry during the step.
	a := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(5, 0)))
	b := net.NewPacket(topo.ID(grid.XY(0, 0)), topo.ID(grid.XY(6, 0)))
	net.MustPlace(a)
	net.MustPlace(b)
	if want := topo.Profitable(net.P.At[b], net.P.Dst[b]); net.P.Prof[b] != want {
		t.Fatalf("placement cached %v for packet %d, want %v", net.P.Prof[b], b.ID(), want)
	}
	net.P.Prof[b] = net.P.Prof[b].Set(grid.North)
	err := net.StepOnce(greedyXY{})
	if err == nil || !strings.Contains(err.Error(), "invariant") ||
		!strings.Contains(err.Error(), "packet 1 ") || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("want an invariant error naming packet 1 and step 1, got %v", err)
	}
}

// badAtSource injects one in-range packet a step and, at step bad, inj too.
type badAtSource struct {
	bad int
	inj Injection
}

func (s badAtSource) Next(step int, buf []Injection) []Injection {
	buf = append(buf, Injection{Src: 0, Dst: 5})
	if step == s.bad {
		buf = append(buf, s.inj)
	}
	return buf
}

func (badAtSource) Exhausted(step int) bool { return step >= 10 }

// TestStreamedInjectionOutsideTopologyRefused: a caller-written source
// that names a node outside the 4×4 mesh, as source or destination, is
// refused with an error naming the step, both endpoints and the node — by
// AttachSource at step 0 under either policy (through Place under
// AdmitRetry), and by Run after step 0, which ends on that step. A caller
// stepping with StepOnce reads it from Err, and Done stays false.
func TestStreamedInjectionOutsideTopologyRefused(t *testing.T) {
	bad := []Injection{{Src: 99, Dst: 5}, {Src: 3, Dst: 99}, {Src: -1, Dst: 5}, {Src: 3, Dst: 16}}
	for _, inj := range bad {
		for _, step := range []int{0, 3} {
			for _, policy := range []AdmissionPolicy{AdmitRetry, AdmitDrop} {
				name := fmt.Sprintf("%d->%d at step %d, policy %d", inj.Src, inj.Dst, step, policy)
				v := inj.Src
				if v >= 0 && v < 16 {
					v = inj.Dst
				}
				want := fmt.Sprintf("(%d->%d): node %d is not one of the topology's 16 nodes", inj.Src, inj.Dst, v)
				net := newTestNet(t, 4, 2)
				err := net.AttachSource(badAtSource{step, inj}, policy)
				if step > 0 {
					if err != nil {
						t.Fatalf("%s: AttachSource: %v", name, err)
					}
					var steps int
					steps, err = net.Run(nil, greedyXY{}, 20, nil)
					if steps != step {
						t.Errorf("%s: Run stopped after %d steps, want %d", name, steps, step)
					}
				}
				if err == nil || !strings.Contains(err.Error(), want) || !strings.HasPrefix(err.Error(), fmt.Sprintf("sim: step %d: ", step)) {
					t.Errorf("%s: got %v, want an error of step %d containing %q", name, err, step, want)
				}
				if step == 0 {
					continue
				}
				// A second Run steps no more and returns the same error.
				if steps, again := net.Run(nil, greedyXY{}, 20, nil); steps != 0 || again != err {
					t.Errorf("%s: second Run: %d steps, %v; want 0 steps and %v", name, steps, again, err)
				}
				// Stepping by hand, the refusal shows in Err and Done
				// never reports the truncated run as finished.
				hand := newTestNet(t, 4, 2)
				if err := hand.AttachSource(badAtSource{step, inj}, policy); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					if err := hand.StepOnce(greedyXY{}); err != nil {
						t.Fatalf("%s: StepOnce: %v", name, err)
					}
				}
				if hand.Done() || hand.Err() == nil || hand.Err().Error() != err.Error() {
					t.Errorf("%s: after 40 hand steps Done=%v Err=%v, want Done=false and %v", name, hand.Done(), hand.Err(), err)
				}
			}
		}
	}
}
