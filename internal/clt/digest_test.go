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

// digestSink hashes spans as they are emitted and, at each one, the
// router's state.
type digestSink struct {
	r            *Router
	spans, state hash.Hash64
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

func (s *digestSink) Step(obs.StepSample) {}

func (s *digestSink) Span(sp obs.Span) {
	fmt.Fprintf(s.spans, "%s/%s/%s/", sp.Name, sp.Class, sp.Axis)
	hashInts(s.spans, sp.Iteration, sp.Tiling, sp.Start, sp.Measured, sp.Formula)
	hashInts(s.state, s.r.res.MaxQueue)
	for _, p := range s.r.pkts {
		hashInts(s.state, int(p.id), p.cur.X, p.cur.Y, p.hops)
	}
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
				sink := &digestSink{spans: fnv.New64a(), state: fnv.New64a()}
				r, err := New(Config{N: n, ImprovedQ: improved, Sink: sink})
				if err != nil {
					t.Fatal(err)
				}
				sink.r = r
				res, err := r.Route(perm)
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("n%d/%s/improved=%v", n, name, improved)] = cltDigest{
					Result: *res,
					Spans:  fmt.Sprintf("%016x", sink.spans.Sum64()),
					State:  fmt.Sprintf("%016x", sink.state.Sum64()),
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
