package routers

import (
	"testing"

	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// The heart of Theorem 15's proof: "any North (respectively, South) queue
// will eject a packet in each step that it contains at least one packet".
// We verify it literally, step by step, on congested workloads: every
// vertically-travelling queue that is nonempty at the start of a step
// loses at least one of its packets during that step.
func TestThm15VerticalQueuesAlwaysEject(t *testing.T) {
	for _, wl := range []string{"reversal", "transpose"} {
		n := 16
		topo := grid.NewSquareMesh(n)
		net := sim.MustNew(Thm15Config(topo, 1))
		var perm *workload.Permutation
		if wl == "reversal" {
			perm = workload.Reversal(topo)
		} else {
			perm = workload.Transpose(topo)
		}
		if err := perm.Place(net); err != nil {
			t.Fatal(err)
		}
		alg := dex.NewAdapter(policies.Thm15{})
		vertTags := []uint8{uint8(grid.North), uint8(grid.South)}
		for step := 0; step < 100*n && !net.Done(); step++ {
			// Snapshot: vertical-queue contents per node.
			type qk struct {
				node grid.NodeID
				tag  uint8
			}
			st := &net.P
			before := map[qk][]sim.PacketID{}
			for _, id := range net.Occupied() {
				node := net.Node(id)
				for _, p := range net.PacketsOf(node) {
					for _, tag := range vertTags {
						if st.QTag[p] == tag {
							before[qk{id, tag}] = append(before[qk{id, tag}], p)
						}
					}
				}
			}
			if err := net.StepOnce(alg); err != nil {
				t.Fatal(err)
			}
			for key, pkts := range before {
				ejected := false
				for _, p := range pkts {
					if st.At[p] != key.node || st.Delivered(p) {
						ejected = true
						break
					}
				}
				if !ejected {
					t.Fatalf("%s: step %d: vertical queue %v of node %v held %d packets and ejected none",
						wl, net.Step(), grid.Dir(key.tag), net.Topo.CoordOf(key.node), len(pkts))
				}
			}
		}
		if !net.Done() {
			t.Fatalf("%s: routing incomplete", wl)
		}
	}
}

// Turning intervals (the O(n²/k) accounting): with queues of size k, at
// most n packets can delay a full turning queue, and the number of
// saturated-turn events per row is bounded. We verify the weaker, directly
// measurable consequence the proof uses: a full E/W queue whose packets all
// want to turn is drained of at least one packet within n steps.
func TestThm15TurningQueueDrainsWithinN(t *testing.T) {
	n, k := 16, 2
	topo := grid.NewSquareMesh(n)
	net := sim.MustNew(Thm15Config(topo, k))
	if err := workload.Transpose(topo).Place(net); err != nil {
		t.Fatal(err)
	}
	alg := dex.NewAdapter(policies.Thm15{})
	// waiting[node] = consecutive steps some horizontal queue has stayed
	// full of turners without draining.
	type sat struct {
		pkts  []sim.PacketID
		since int
	}
	saturated := map[grid.NodeID]*sat{}
	for step := 0; step < 200*n && !net.Done(); step++ {
		if err := net.StepOnce(alg); err != nil {
			t.Fatal(err)
		}
		for _, id := range net.Occupied() {
			node := net.Node(id)
			for _, tag := range []uint8{uint8(grid.East), uint8(grid.West)} {
				if net.QueueLen(node, tag) < k {
					continue
				}
				allTurn := true
				var pkts []sim.PacketID
				for _, p := range net.PacketsOf(node) {
					if net.P.QTag[p] != tag {
						continue
					}
					pkts = append(pkts, p)
					if net.Topo.Profitable(id, net.P.Dst[p]).DimOrder().Horizontal() {
						allTurn = false
					}
				}
				if !allTurn {
					delete(saturated, id)
					continue
				}
				s := saturated[id]
				if s == nil || !samePackets(s.pkts, pkts) {
					saturated[id] = &sat{pkts: pkts, since: net.Step()}
					continue
				}
				if net.Step()-s.since > n {
					t.Fatalf("turning queue at %v stuck for more than n=%d steps", net.Topo.CoordOf(id), n)
				}
			}
		}
	}
	if !net.Done() {
		t.Fatal("incomplete")
	}
}

func samePackets(a, b []sim.PacketID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := map[sim.PacketID]bool{}
	for _, p := range a {
		seen[p] = true
	}
	for _, p := range b {
		if !seen[p] {
			return false
		}
	}
	return true
}
