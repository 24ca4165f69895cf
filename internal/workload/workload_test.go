package workload

import (
	"fmt"
	"testing"
	"testing/quick"

	"meshroute/internal/grid"
	"meshroute/internal/sim"
)

func TestRandomIsPermutation(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	p := Random(topo, 1)
	if p.Len() != 64 {
		t.Fatalf("len = %d", p.Len())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	a, b := Random(topo, 7), Random(topo, 7)
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatal("same seed must give same permutation")
		}
	}
	c := Random(topo, 8)
	same := true
	for i := range a.Pairs {
		if a.Pairs[i] != c.Pairs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestStructuredPermutationsValid(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	for name, p := range map[string]*Permutation{
		"transpose":   Transpose(topo),
		"reversal":    Reversal(topo),
		"rotation":    Rotation(topo, 3, 5),
		"bitreversal": BitReversal(topo),
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if p.Len() != 64 {
			t.Errorf("%s: len %d", name, p.Len())
		}
	}
}

func TestTransposeMapsCorrectly(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	p := Transpose(topo)
	for _, pr := range p.Pairs {
		s, d := topo.CoordOf(pr.Src), topo.CoordOf(pr.Dst)
		if s.X != d.Y || s.Y != d.X {
			t.Fatalf("transpose wrong: %v -> %v", s, d)
		}
	}
}

func TestBitReversalSelfInverse(t *testing.T) {
	topo := grid.NewSquareMesh(8)
	p := BitReversal(topo)
	m := map[grid.NodeID]grid.NodeID{}
	for _, pr := range p.Pairs {
		m[pr.Src] = pr.Dst
	}
	for s, d := range m {
		if m[d] != s {
			t.Fatalf("bit reversal must be an involution: %d -> %d -> %d", s, d, m[d])
		}
	}
}

func TestRotationQuickIsPermutation(t *testing.T) {
	topo := grid.NewSquareMesh(6)
	f := func(dx, dy int8) bool {
		p := Rotation(topo, int(dx), int(dy))
		return p.Validate() == nil && p.Len() == 36
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// hhLoad returns the most packets any node sends and receives.
func hhLoad(pairs []Pair) (send, recv int) {
	snd, rcv := map[grid.NodeID]int{}, map[grid.NodeID]int{}
	for _, pr := range pairs {
		snd[pr.Src]++
		rcv[pr.Dst]++
		send, recv = max(send, snd[pr.Src]), max(recv, rcv[pr.Dst])
	}
	return send, recv
}

func TestHHValidate(t *testing.T) {
	topo := grid.NewSquareMesh(6)
	hh := RandomHH(topo, 3, 42)
	if send, recv := hhLoad(hh.Pairs); send != 3 || recv != 3 {
		t.Fatalf("a 3-3 instance sends %d and receives %d per node at most", send, recv)
	}
	if len(hh.Pairs) != 3*36 {
		t.Fatalf("len = %d", len(hh.Pairs))
	}
	if err := hh.Validate(); err == nil {
		t.Fatal("a 3-3 instance is not one-to-one and must fail Validate")
	}
	if err := RandomHH(topo, 1, 42).Validate(); err != nil {
		t.Fatalf("a 1-1 instance is a permutation: %v", err)
	}
}

func TestPlaceIntoNetwork(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	net := sim.MustNew(sim.Config{Topo: topo, K: 1, Queues: sim.CentralQueue})
	p := Random(topo, 3)
	if err := p.Place(net); err != nil {
		t.Fatal(err)
	}
	if net.TotalPackets() != 16 {
		t.Fatalf("placed %d", net.TotalPackets())
	}
}

// nopAlg never schedules a move: enough to drive the injection phase.
type nopAlg struct{}

func (nopAlg) Name() string                     { return "nop" }
func (nopAlg) InitNode(*sim.Network, *sim.Node) {}
func (nopAlg) Schedule(*sim.Network, *sim.Node) [grid.NumDirs]int {
	return [grid.NumDirs]int{-1, -1, -1, -1}
}
func (nopAlg) Accept(*sim.Network, *sim.Node, []sim.Offer, []bool) {}
func (nopAlg) Update(*sim.Network, *sim.Node)                      {}

func TestHHSourceQueues(t *testing.T) {
	topo := grid.NewSquareMesh(4)
	net := sim.MustNew(sim.Config{Topo: topo, K: 1, Queues: sim.CentralQueue})
	hh := RandomHH(topo, 2, 5)
	if err := net.AttachSource(ReplayAt(hh.Pairs, 1), sim.AdmitRetry); err != nil {
		t.Fatal(err)
	}
	if net.TotalPackets() != 0 {
		t.Fatalf("materialized %d packets before step 1", net.TotalPackets())
	}
	if net.Done() {
		t.Fatal("network with a live source must not be Done")
	}
	if err := net.StepOnce(nopAlg{}); err != nil {
		t.Fatal(err)
	}
	if net.TotalPackets() != 32 {
		t.Fatalf("queued %d", net.TotalPackets())
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	rect := grid.NewMesh(4, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("transpose on rectangle must panic")
		}
	}()
	Transpose(rect)
}

func TestBitReversalPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bit reversal on 6x6 must panic")
		}
	}()
	BitReversal(grid.NewSquareMesh(6))
}

// Validate reports the first offence in pair order, a repeated source
// before a repeated destination of the same pair, and names the node.
func TestValidateDuplicates(t *testing.T) {
	cases := []struct {
		name  string
		pairs []Pair
		want  string // "" = valid
	}{
		{"empty", nil, ""},
		{"partial", []Pair{{Src: 3, Dst: 900}, {Src: 900, Dst: 3}, {Src: 64, Dst: 64}}, ""},
		{"duplicate source", []Pair{{Src: 1, Dst: 2}, {Src: 5, Dst: 6}, {Src: 1, Dst: 7}}, "workload: duplicate source 1"},
		{"duplicate destination", []Pair{{Src: 1, Dst: 2}, {Src: 5, Dst: 70}, {Src: 6, Dst: 70}}, "workload: duplicate destination 70"},
		{"source before destination", []Pair{{Src: 1, Dst: 2}, {Src: 1, Dst: 2}}, "workload: duplicate source 1"},
		{"earlier pair first", []Pair{{Src: 1, Dst: 2}, {Src: 3, Dst: 2}, {Src: 1, Dst: 9}}, "workload: duplicate destination 2"},
		{"ids on both sides of zero", []Pair{{Src: -130, Dst: 4}, {Src: 4, Dst: -130}, {Src: -130, Dst: 5}}, "workload: duplicate source -130"},
	}
	for _, c := range cases {
		err := (&Permutation{Pairs: c.pairs}).Validate()
		if (c.want == "") != (err == nil) || (err != nil && fmt.Sprint(err) != c.want) {
			t.Errorf("%s: Validate() = %v, want %q", c.name, err, c.want)
		}
	}
}
