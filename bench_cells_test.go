package meshroute_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"meshroute/internal/adversary"
	"meshroute/internal/clt"
	"meshroute/internal/dex"
	"meshroute/internal/grid"
	"meshroute/internal/policies"
	"meshroute/internal/routers"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// The trajectory cells: one representative cell per experiment (E1–E14)
// and the two online admission cells (Od, Or), as recorded in the
// meshroute-bench/v1 files out/BENCH_PR1.json … out/BENCH_PR26.json. The
// last of those files is the golden: every cell must reproduce its
// simulated columns exactly. Wall-clock and allocation columns are not
// compared. The S cells of those files are not repeated here;
// BenchmarkStepTorus and the zigzag-torus-n256-k4 engine digest cover the
// same series.
const benchCellsGolden = "out/BENCH_PR26.json"

// benchCellRecord is the simulated part of one recorded cell.
type benchCellRecord struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	Steps       int     `json:"steps"`
	Makespan    int     `json:"makespan"`
	PeakQueue   int     `json:"peak_queue"`
	Throughput  float64 `json:"throughput"`
	RefusalRate float64 `json:"refusal_rate"`
	Congestion  int     `json:"congestion"`
	Dilation    int     `json:"dilation"`
	CDRatio     float64 `json:"cd_ratio"`
}

func TestBenchCellsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 lower-bound, Theorem 34 and engine cells; skipped with -short")
	}
	data, err := os.ReadFile(benchCellsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Cells []benchCellRecord `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]benchCellRecord{}
	for _, c := range doc.Cells {
		if strings.HasPrefix(c.ID, "E") || strings.HasPrefix(c.ID, "O") {
			want[c.ID] = c
		}
	}
	cs := append(cells(), onlineCells()...)
	if len(cs) != len(want) {
		t.Fatalf("%d cells here, %d E and O cells in %s", len(cs), len(want), benchCellsGolden)
	}
	for _, c := range cs {
		t.Run(c.id, func(t *testing.T) {
			w, ok := want[c.id]
			if !ok {
				t.Fatalf("no cell %s in %s", c.id, benchCellsGolden)
			}
			st, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got := benchCellRecord{
				ID: c.id, Name: c.name,
				Steps: st.steps, Makespan: st.makespan, PeakQueue: st.peakQueue,
				Throughput: st.throughput, RefusalRate: st.refusalRate,
				Congestion: st.congestion, Dilation: st.dilation, CDRatio: st.cdRatio,
			}
			if got != w {
				t.Errorf("\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// stats is what a cell's body reports.
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

func dimOrder() sim.Algorithm { return dex.NewAdapter(policies.DimOrderFIFO{}) }
func zigzag() sim.Algorithm   { return dex.NewAdapter(policies.ZigZag{}) }
func thm15() sim.Algorithm    { return dex.NewAdapter(policies.Thm15{}) }

// specCell executes a scenario spec and reports makespan and peak queue;
// sim-engine cells go through the scenario layer, same as the CLIs and the
// experiment harness.
func specCell(s *scenario.Spec, requireDone bool) (stats, error) {
	// Every sim-engine cell carries the C/D efficiency columns.
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

// onlineCells are the streaming-injection cells: the same shape as the
// committed online golden scenario (bernoulli arrivals on n=64, k=4,
// dimorder) under each admission policy. They are the cells that carry
// throughput and refusal rate.
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

// cells are the E1–E14 cells, the same shapes as the root bench_test.go
// benchmarks at quick sizes.
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
			res, err := c.Run(dex.NewAdapter(policies.StrayDimOrder{Delta: 0}))
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
			// CheckInvariants stays off, as when the cell was recorded: it
			// was a timing cell, and the pre-scenario code ran without the
			// checker.
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
					Kind: scenario.KindOnline, Process: scenario.ProcessBernoulli, Seed: 7,
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
