// Command benchjson runs one representative cell per experiment of the
// reproduction (E1–E14, the same shapes as the root bench_test.go
// benchmarks, at quick sizes) plus the engine scaling series (S cells: the
// torus at n ∈ {64, 256, 1024}) and the online streaming-injection cells
// (O cells: bounded-buffer admission under drop and retry policies,
// reporting throughput and refusal rate) and writes the measurements as
// machine-readable JSON — the repo's perf trajectory file. Each cell
// reports wall time, engine steps, ns/step, makespan, peak queue
// occupancy, and allocation counts. The schema is documented in
// docs/OBSERVABILITY.md.
//
// Usage:
//
//	benchjson                       # writes out/BENCH_PR8.json
//	benchjson -out my.json -label x # custom output path and label
//	benchjson -workers 4            # parallel cells (wall/alloc numbers noisy)
//
// By default cells run sequentially (workers = 1) so per-cell timings and
// allocation deltas are honest; raise -workers to trade measurement
// accuracy for speed. Cells always dispatch through internal/par, the
// same pool the experiment harness uses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"meshroute/internal/adversary"
	"meshroute/internal/clt"
	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/par"
	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// Schema is the format identifier written to the output file and
// documented in docs/OBSERVABILITY.md.
const Schema = "meshroute-bench/v1"

// CellResult is one cell's measurements (the "cells" array element of the
// BENCH json schema).
type CellResult struct {
	// ID is the experiment the cell represents: E1..E14 for the paper's
	// experiments, or S<n>w1 for the engine scaling series.
	ID string `json:"id"`
	// Name describes the concrete instance (router, n, k, workload).
	Name string `json:"name"`
	// Steps is the number of engine (or phase-simulation) steps executed.
	Steps int `json:"steps"`
	// WallNS is the cell's wall-clock duration in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// NSPerStep is WallNS / Steps.
	NSPerStep float64 `json:"ns_per_step"`
	// Makespan is the headline step count of the cell: the delivery
	// makespan, the forced lower bound, or the synchronized schedule
	// length, depending on the experiment.
	Makespan int `json:"makespan"`
	// PeakQueue is the peak queue (or node) occupancy observed.
	PeakQueue int `json:"peak_queue"`
	// Allocs is the number of heap allocations during the cell (exact
	// only with -workers 1).
	Allocs uint64 `json:"allocs"`
	// AllocBytes is the number of bytes allocated during the cell
	// (exact only with -workers 1).
	AllocBytes uint64 `json:"alloc_bytes"`
	// Throughput is, for online (O) cells, delivered packets per step over
	// the run. Omitted elsewhere.
	Throughput float64 `json:"throughput,omitempty"`
	// RefusalRate is, for online (O) cells, refused / (admitted + refused)
	// over the run — the bounded-buffer admission pressure. Omitted
	// elsewhere (and when the queues never filled).
	RefusalRate float64 `json:"refusal_rate,omitempty"`
	// Congestion, Dilation and CDRatio are the workload's analyzed C and
	// D and the efficiency ratio makespan/(C+D) (docs/ANALYSIS.md).
	// Present on every scenario-built cell (specCell forces analysis);
	// omitted on phase-simulation, lower-bound and constructed-
	// permutation cells, which bypass the scenario layer.
	Congestion int     `json:"congestion,omitempty"`
	Dilation   int     `json:"dilation,omitempty"`
	CDRatio    float64 `json:"cd_ratio,omitempty"`
}

// Output is the top-level BENCH json document.
type Output struct {
	// Schema identifies the format version.
	Schema string `json:"schema"`
	// Label tags the run (e.g. "PR6").
	Label string `json:"label"`
	// Go is the toolchain version the run was built with.
	Go string `json:"go"`
	// Workers is the cell-level parallelism the run used (timings are
	// exact only at 1).
	Workers int `json:"workers"`
	// Cells holds one entry per cell: E1..E14 in order, then the online
	// admission cells (O*), then the S<n>w1 scaling series.
	Cells []CellResult `json:"cells"`
}

// stats is what a cell's body reports back to the measurement driver.
type stats struct {
	steps       int
	makespan    int
	peakQueue   int
	throughput  float64
	refusalRate float64
	congestion  int
	dilation    int
	cdRatio     float64
}

type cell struct {
	id   string
	name string
	run  func() (stats, error)
}

func dimOrder() sim.Algorithm { return dex.NewAdapter(routers.DimOrderFIFO{}) }
func zigzag() sim.Algorithm   { return dex.NewAdapter(routers.ZigZag{}) }
func thm15() sim.Algorithm    { return dex.NewAdapter(routers.Thm15{}) }

// specCell executes a scenario spec and reports makespan and peak queue;
// sim-engine cells go through the scenario layer, same as the CLIs and the
// experiment harness.
func specCell(s *scenario.Spec, requireDone bool) (stats, error) {
	// Every sim-engine cell carries the C/D efficiency columns; the
	// analyzer runs inside the timed region, so its (one-off, per-run)
	// cost is part of the cell's wall clock, not the per-step figure the
	// gate watches.
	s.Analysis = true
	var r scenario.Runner
	res, err := r.Run(context.Background(), s)
	if err != nil {
		return stats{}, err
	}
	if res.Err != nil {
		return stats{}, res.Err
	}
	if requireDone && !res.Stats.Done {
		return stats{}, fmt.Errorf("incomplete after %d steps", res.Steps)
	}
	st := stats{steps: res.Steps, makespan: res.Stats.Makespan, peakQueue: res.Stats.MaxQueue}
	if res.Stats.Online {
		st.throughput = res.Stats.Throughput
		st.refusalRate = res.Stats.RefusalRate()
	}
	if res.Stats.Analyzed {
		st.congestion = res.Stats.Congestion
		st.dilation = res.Stats.Dilation
		st.cdRatio = res.Stats.CDRatio
	}
	return st, nil
}

// onlineCells measures the streaming-injection path end to end: the same
// shape as the committed online golden scenario (bernoulli arrivals on
// n=64, k=4, dimorder) under each admission policy. These are the cells
// that carry the throughput and refusal_rate schema fields.
func onlineCells() []cell {
	var cs []cell
	for _, adm := range []string{scenario.AdmissionDrop, scenario.AdmissionRetry} {
		adm := adm
		cs = append(cs, cell{
			id:   "O" + adm[:1],
			name: "online-bernoulli-n64-k4-" + adm,
			run: func() (stats, error) {
				return specCell(&scenario.Spec{
					N: 64, K: 4, Router: "dimorder",
					Workload: scenario.Workload{
						Kind: scenario.KindOnline, Seed: 11, Horizon: 200,
						Rate: 0.08, Process: scenario.ProcessBernoulli, Admission: adm,
					},
				}, false)
			},
		})
	}
	return cs
}

func cells() []cell {
	return []cell{
		{"E1", "lowerbound-general-dimorder-n60-k1", func() (stats, error) {
			c, err := adversary.NewConstruction(60, 1)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(dimOrder())
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps, makespan: res.Steps, peakQueue: res.Net.Metrics.MaxQueueLen}, nil
		}},
		{"E2", "lowerbound-dimorder-thm15-n60-k1-completion", func() (stats, error) {
			c, err := adversary.NewDOConstruction(60, 4*1+1)
			if err != nil {
				return stats{}, err
			}
			c.Queues = sim.PerInlinkQueues
			c.NetK = 1
			res, err := c.Run(thm15())
			if err != nil {
				return stats{}, err
			}
			net, err := c.Replay(res, thm15())
			if err != nil {
				return stats{}, err
			}
			mk, done, err := adversary.RunToCompletion(net, thm15(), 100*60*60)
			if err != nil || !done {
				return stats{}, fmt.Errorf("completion failed: %v", err)
			}
			return stats{steps: res.Steps + mk, makespan: mk, peakQueue: net.Metrics.MaxQueueLen}, nil
		}},
		{"E3", "lowerbound-farthestfirst-n64-k1", func() (stats, error) {
			c, err := adversary.NewFFConstruction(64, 1)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(routers.DimOrderFF{})
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps, makespan: res.Steps, peakQueue: res.Net.Metrics.MaxQueueLen}, nil
		}},
		{"E4", "thm15-reversal-n32-k1", func() (stats, error) {
			return specCell(&scenario.Spec{
				N: 32, K: 1, Router: "thm15",
				Workload: scenario.Workload{Kind: scenario.KindReversal},
				MaxSteps: 500 * 32 * 32,
			}, true)
		}},
		{"E5", "clt-random-n27", func() (stats, error) {
			r, err := clt.New(clt.Config{N: 27})
			if err != nil {
				return stats{}, err
			}
			res, err := r.Route(workload.Random(grid.NewSquareMesh(27), 7))
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.TimeMeasured, makespan: res.TimeFormula, peakQueue: res.MaxQueue}, nil
		}},
		{"E6", "lowerbound-hh-n60-k1-h2", func() (stats, error) {
			c, err := adversary.NewHHConstruction(60, 1, 2)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(dimOrder())
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps, makespan: res.Steps, peakQueue: res.Net.Metrics.MaxQueueLen}, nil
		}},
		{"E7", "lowerbound-torus120-submesh60-k1", func() (stats, error) {
			p, err := adversary.NewParams(60, 1)
			if err != nil {
				return stats{}, err
			}
			c := &adversary.Construction{Par: p, Topo: grid.NewSquareTorus(120), H: 1}
			res, err := c.Run(dimOrder())
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps, makespan: res.Steps, peakQueue: res.Net.Metrics.MaxQueueLen}, nil
		}},
		{"E8", "thm15-random-n32-k2", func() (stats, error) {
			return specCell(&scenario.Spec{
				N: 32, K: 2, Router: "thm15",
				Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: 3},
				MaxSteps: 500 * 32,
			}, true)
		}},
		{"E9", "clt-on-constructed-perm-n81", func() (stats, error) {
			c, err := adversary.NewConstruction(81, 1)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(dimOrder())
			if err != nil {
				return stats{}, err
			}
			r, err := clt.New(clt.Config{N: 81})
			if err != nil {
				return stats{}, err
			}
			cres, err := r.Route(&workload.Permutation{Pairs: res.Permutation})
			if err != nil {
				return stats{}, err
			}
			return stats{steps: cres.TimeMeasured, makespan: cres.TimeFormula, peakQueue: cres.MaxQueue}, nil
		}},
		{"E10", "lowerbound-stray-n120-k1-delta0", func() (stats, error) {
			c, err := adversary.NewDeltaConstruction(120, 1, 0)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(dex.NewAdapter(routers.StrayDimOrder{Delta: 0}))
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps, makespan: res.Steps, peakQueue: res.Net.Metrics.MaxQueueLen}, nil
		}},
		{"E11", "cross-hardness-zigzag-on-dimorder-perm-n120-k2", func() (stats, error) {
			c, err := adversary.NewConstruction(120, 2)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(dimOrder())
			if err != nil {
				return stats{}, err
			}
			// CheckInvariants stays off: this is a timing cell, and the
			// pre-scenario code ran without the checker.
			return specCell(&scenario.Spec{
				N: 120, K: 2, Router: "zigzag",
				CheckInvariants: scenario.Bool(false),
				Workload:        scenario.Workload{Kind: scenario.KindPairs, Pairs: res.Permutation},
				MaxSteps:        40 * res.Steps,
			}, false)
		}},
		{"E12", "dynamic-thm15-n32-k2-load0.6", func() (stats, error) {
			const n = 32
			return specCell(&scenario.Spec{
				N: n, K: 2, Router: "thm15",
				Workload: scenario.Workload{
					Kind: scenario.KindBernoulli, Seed: 7,
					Rate: 0.6 * 4 / float64(n), Horizon: 16 * n,
				},
			}, false)
		}},
		{"E13", "randomized-on-zigzag-perm-n120-k4-seed1", func() (stats, error) {
			c, err := adversary.NewConstruction(120, 1)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(zigzag())
			if err != nil {
				return stats{}, err
			}
			return specCell(&scenario.Spec{
				N: 120, K: 4, Router: "rand-zigzag", Seed: 1,
				CheckInvariants: scenario.Bool(false),
				Workload:        scenario.Workload{Kind: scenario.KindPairs, Pairs: res.Permutation},
				MaxSteps:        40 * res.Steps,
			}, false)
		}},
		{"E14", "openproblem-zigzag-own-perm-n120-k2-completion", func() (stats, error) {
			c, err := adversary.NewConstruction(120, 2)
			if err != nil {
				return stats{}, err
			}
			res, err := c.Run(zigzag())
			if err != nil {
				return stats{}, err
			}
			net, err := c.Replay(res, zigzag())
			if err != nil {
				return stats{}, err
			}
			mk, _, err := adversary.RunToCompletion(net, zigzag(), 60*res.Steps)
			if err != nil {
				return stats{}, err
			}
			return stats{steps: res.Steps + mk, makespan: mk, peakQueue: net.Metrics.MaxQueueLen}, nil
		}},
	}
}

// scaleCells is the engine scaling series: a fully loaded transpose
// permutation on the torus (one packet per node, 4K / 65K / 1M packets)
// stepped for n/2 steps — below the makespan, so every step runs saturated
// and ns/step measures the steady-state per-packet cost at each size.
// docs/SCALING.md reads its numbers from these cells. IDs and names keep
// the w1 of the former worker matrix, so trajectory files stay comparable.
func scaleCells() []cell {
	var cs []cell
	for _, n := range []int{64, 256, 1024} {
		cs = append(cs, cell{
			id:   fmt.Sprintf("S%dw1", n),
			name: fmt.Sprintf("scale-zigzag-torus-n%d-w1-k4", n),
			run: func() (stats, error) {
				return specCell(&scenario.Spec{
					Topology: scenario.TopoTorus,
					N:        n, K: 4, Router: "zigzag",
					Workload: scenario.Workload{Kind: scenario.KindTranspose},
					MaxSteps: n / 2,
				}, false)
			},
		})
	}
	return cs
}

func main() {
	out := flag.String("out", filepath.Join("out", "BENCH_PR8.json"), "output path for the BENCH json")
	label := flag.String("label", "PR8", "label recorded in the output")
	workers := flag.Int("workers", 1, "cell-level parallelism (timings and alloc counts are exact only at 1)")
	flag.Parse()

	cs := append(append(cells(), onlineCells()...), scaleCells()...)
	results := make([]CellResult, len(cs))
	_, err := par.Map(len(cs), *workers, func(i int) (struct{}, error) {
		c := cs[i]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		st, err := c.run()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return struct{}{}, fmt.Errorf("%s (%s): %w", c.id, c.name, err)
		}
		nsPerStep := 0.0
		if st.steps > 0 {
			nsPerStep = float64(wall.Nanoseconds()) / float64(st.steps)
		}
		results[i] = CellResult{
			ID: c.id, Name: c.name,
			Steps: st.steps, WallNS: wall.Nanoseconds(), NSPerStep: nsPerStep,
			Makespan: st.makespan, PeakQueue: st.peakQueue,
			Allocs: after.Mallocs - before.Mallocs, AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Throughput: st.throughput, RefusalRate: st.refusalRate,
			Congestion: st.congestion, Dilation: st.dilation, CDRatio: st.cdRatio,
		}
		fmt.Fprintf(os.Stderr, "%-4s %-48s %8d steps %10.0f ns/step  makespan %6d  peakQ %4d\n",
			c.id, c.name, st.steps, nsPerStep, st.makespan, st.peakQueue)
		return struct{}{}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	doc := Output{Schema: Schema, Label: *label, Go: runtime.Version(), Workers: *workers, Cells: results}
	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d cells to %s\n", len(results), *out)
}
