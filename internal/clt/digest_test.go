package clt

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
	"meshroute/internal/workload"
)

// The CLT golden digests pin the Section 6 simulator the way
// testdata/engine_digests.json pins the engine: for every cell the Result,
// an FNV-1a hash of the emitted span stream, and an FNV-1a hash of the
// simulator state at every span (running peak occupancy, then every
// packet's position and hop count in id order). They were recorded on the
// map-and-pointer implementation of PR 12, so a rewrite of the phase state
// that changes one move, or the order in which one step's moves are applied
// where a node's occupancy depends on it, fails here.
//
// Regenerate (only when a behaviour change is intended and understood) with:
//
//	go test ./internal/clt -run TestCLTGoldenDigests -update-clt-digests
var updateCLTDigests = flag.Bool("update-clt-digests", false,
	"rewrite testdata/clt_digests.json from the current simulator")

const cltDigestFile = "../../testdata/clt_digests.json"

type cltDigest struct {
	Result Result `json:"result"`
	Spans  string `json:"spans"`
	State  string `json:"state"`
}

func hashInts(h hash.Hash64, vs ...int) {
	var buf [8]byte
	for _, v := range vs {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
}

// pktState is what the state digest hashes of one packet.
type pktState struct{ id, x, y, hops int32 }

// classSnap is a class run at one of its spans: its running peak and its
// packets, in slab order.
type classSnap struct {
	peak int
	pkts []pktState
}

// digestSink hashes the span stream as Route emits it. The state digest is
// of the whole network at every span, which with the four class runs side
// by side exists nowhere at span time: the spanHook snapshots each class
// at its own spans and stateDigest puts the serial picture back together.
type digestSink struct {
	spans hash.Hash64
	snaps [numClasses][]classSnap
}

func (s *digestSink) Step(obs.StepSample) {}
func (s *digestSink) Event(obs.Event)     {}
func (s *digestSink) Run(obs.RunSummary)  {}

func (s *digestSink) Span(sp obs.Span) {
	fmt.Fprintf(s.spans, "%s/%s/%s/", sp.Name, sp.Class, sp.Axis)
	hashInts(s.spans, sp.Iteration, sp.Tiling, sp.Start, sp.Measured, sp.Formula)
}

// snapshot is the Router's spanHook; each class appends to its own list.
func (s *digestSink) snapshot(c *classRun) {
	snap := classSnap{peak: c.res.MaxQueue, pkts: make([]pktState, len(c.pkts))}
	for k, p := range c.pkts {
		snap.pkts[k] = pktState{p.id, p.cur.X, p.cur.Y, p.hops}
	}
	s.snaps[c.class] = append(s.snaps[c.class], snap)
}

// stateDigest hashes, for every span in class order, the running peak
// occupancy and then every packet's position and hop count in id order, as
// routing the classes one after another has them at that span: the earlier
// classes delivered, the span's class as snapshotted, the later classes at
// their sources with no hops, and the peak the largest seen so far.
func (s *digestSink) stateDigest(n int, perm *workload.Permutation) string {
	topo := grid.NewSquareMesh(n)
	state := make([]pktState, len(perm.Pairs)) // by id; hops < 0: not routed
	for i, pr := range perm.Pairs {
		src := topo.CoordOf(pr.Src)
		state[i] = pktState{int32(i), int32(src.X), int32(src.Y), 0}
		if pr.Src == pr.Dst {
			state[i].hops = -1
		}
	}
	h := fnv.New64a()
	peak := 0 // of the classes before the current one
	for _, snaps := range s.snaps {
		for _, snap := range snaps {
			for _, p := range snap.pkts {
				state[p.id] = p
			}
			hashInts(h, max(peak, snap.peak))
			for _, p := range state {
				if p.hops >= 0 {
					hashInts(h, int(p.id), int(p.x), int(p.y), int(p.hops))
				}
			}
		}
		peak = max(peak, snaps[len(snaps)-1].peak)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestCLTGoldenDigests(t *testing.T) {
	got := map[string]cltDigest{}
	for _, n := range []int{27, 81} {
		topo := grid.NewSquareMesh(n)
		perms := map[string]*workload.Permutation{
			"random-1":  workload.Random(topo, 1),
			"random-2":  workload.Random(topo, 2),
			"random-3":  workload.Random(topo, 3),
			"transpose": workload.Transpose(topo),
			"reversal":  workload.Reversal(topo),
		}
		for name, perm := range perms {
			for _, improved := range []bool{false, true} {
				sink := &digestSink{spans: fnv.New64a()}
				r, err := New(Config{N: n, ImprovedQ: improved, Sink: sink})
				if err != nil {
					t.Fatal(err)
				}
				r.spanHook = sink.snapshot
				res, err := r.Route(perm)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("n%d/%s/improved=%v", n, name, improved)] = cltDigest{
					Result: *res,
					Spans:  fmt.Sprintf("%016x", sink.spans.Sum64()),
					State:  sink.stateDigest(n, perm),
				}
			}
		}
	}
	if *updateCLTDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cltDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), cltDigestFile)
		return
	}
	data, err := os.ReadFile(cltDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]cltDigest{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the test runs %d", cltDigestFile, len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no pinned digest", name)
		} else if g != w {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
}
