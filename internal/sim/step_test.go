package sim

import (
	"testing"

	"meshroute/internal/grid"
)

// buildReversal fills an n×n mesh with the reversal permutation: node i
// sends one packet to node n²-1-i (skipping fixed points).
func buildReversal(tb testing.TB, n, k int) *Network {
	tb.Helper()
	net := MustNew(Config{
		Topo:           grid.NewSquareMesh(n),
		K:              k,
		Queues:         CentralQueue,
		RequireMinimal: true,
	})
	total := n * n
	for i := 0; i < total; i++ {
		j := total - 1 - i
		if i == j {
			continue
		}
		net.MustPlace(net.NewPacket(grid.NodeID(i), grid.NodeID(j)))
	}
	return net
}

// buildDynamic builds a mesh with a deterministic arithmetic injection
// pattern, exercising the backlog path.
func buildDynamic(tb testing.TB, n, k, horizon int) *Network {
	tb.Helper()
	net := MustNew(Config{
		Topo:           grid.NewSquareMesh(n),
		K:              k,
		Queues:         CentralQueue,
		RequireMinimal: true,
	})
	src := TimedSource{}
	for step := 1; step <= horizon/2; step++ {
		for id := 0; id < n*n; id++ {
			if (id+step)%5 == 0 {
				dst := grid.NodeID((id*17 + step*23) % (n * n))
				src[step] = append(src[step], Injection{Src: grid.NodeID(id), Dst: dst})
			}
		}
	}
	if err := net.AttachSource(src, AdmitRetry); err != nil {
		tb.Fatal(err)
	}
	return net
}

// TestOccupiedOrderDeterminism pins the determinism contract documented on
// the occ field: two identical runs observe the identical (insertion-
// ordered, not sorted) Occupied() sequence after every step.
func TestOccupiedOrderDeterminism(t *testing.T) {
	const n, k, steps = 10, 2, 80
	a := buildDynamic(t, n, k, steps)
	b := buildDynamic(t, n, k, steps)
	sorted := true
	for s := 0; s < steps && !(a.Done() && b.Done()); s++ {
		if err := a.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
		if err := b.StepOnce(greedyXY{}); err != nil {
			t.Fatal(err)
		}
		ao, bo := a.Occupied(), b.Occupied()
		if len(ao) != len(bo) {
			t.Fatalf("step %d: occupied sizes differ", s)
		}
		for i := range ao {
			if ao[i] != bo[i] {
				t.Fatalf("step %d: Occupied()[%d] differs between identical runs: %v vs %v", s, i, ao[i], bo[i])
			}
			if i > 0 && ao[i] < ao[i-1] {
				sorted = false
			}
		}
	}
	// The contract is insertion order, not sortedness; with dynamic
	// injection the list goes unsorted, which is what the documentation
	// now states. Guard against silently reverting to a sorted list.
	if sorted {
		t.Log("note: occupied list stayed sorted this run (contract only requires determinism)")
	}
}

// TestSteadyStateStepAllocs pins the zero-allocation hot path: after
// warmup, a step with a nil sink and no injections must not allocate.
func TestSteadyStateStepAllocs(t *testing.T) {
	net := buildReversal(t, 16, 2)
	alg := greedyXY{}
	for i := 0; i < 5; i++ { // warm scratch buffers
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
	}
	requireZeroAllocSteps(t, 20, func() error { return net.StepOnce(alg) })
}

// TestDepartRefusesStaleSlot holds depart to the queue's live length: a
// packet whose slot index names the position one past the node's last
// resident is not at its sender, even where the slot array, inside the
// node's region, still holds a stale copy of it.
func TestDepartRefusesStaleSlot(t *testing.T) {
	net := MustNew(Config{Topo: grid.NewSquareMesh(4), K: 4, Queues: CentralQueue, RequireMinimal: true})
	net.MustPlace(net.NewPacket(0, 5))
	p := net.NewPacket(0, 10)
	net.MustPlace(p)
	node := &net.nodes[0]
	node.qLen-- // p leaves the queue; its copy stays in the slot array
	net.P.slot[p] = int32(node.qLen)
	if node.qLen >= node.qCap || net.slots[node.qStart+node.qLen] != p {
		t.Fatalf("setup: want a stale copy of %d at slot %d inside a region of %d", p, node.qLen, node.qCap)
	}
	if net.depart(p, 0) {
		t.Fatal("depart accepted a packet one slot past the queue's end")
	}
	if net.P.departing[p] || node.flags&nodeSent != 0 || len(net.scratch.senders) != 0 {
		t.Fatal("a refused depart left a mark")
	}
}
