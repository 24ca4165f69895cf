package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshroute/internal/sim"
	"meshroute/internal/workload"
)

// randomSpec draws a valid Spec: router, topology, workload kind and the
// optional knobs are all sampled, so round-tripping covers the whole
// format, including fields that marshal with omitempty.
func randomSpec(rng *rand.Rand) *Spec {
	routers := []string{"dimorder", "zigzag", "thm15", "farthest-first", "hot-potato", "rand-zigzag", "stray-dimorder"}
	s := &Spec{
		Name:     "prop",
		N:        4 + rng.Intn(8),
		K:        1 + rng.Intn(4),
		Router:   routers[rng.Intn(len(routers))],
		Workload: Workload{Kind: KindTranspose},
	}
	if rng.Intn(2) == 0 {
		s.Topology = []string{TopoMesh, TopoTorus}[rng.Intn(2)]
	}
	switch rng.Intn(7) {
	case 0:
		s.Workload = Workload{Kind: KindRandom, Seed: rng.Int63n(1000)}
	case 1:
		s.Workload = Workload{Kind: KindHH, H: 1 + rng.Intn(3), Seed: rng.Int63n(1000)}
	case 2:
		s.Workload = Workload{Kind: KindRotation, DX: rng.Intn(3), DY: rng.Intn(3)}
	case 3:
		s.Workload = Workload{Kind: KindBurst, Horizon: 10 + rng.Intn(100)}
	case 4:
		s.Workload = Workload{Kind: KindBernoulli, Horizon: 10 + rng.Intn(100), Seed: rng.Int63n(1000), Rate: 0.1 + 0.8*rng.Float64()}
	case 5:
		s.Workload = Workload{Kind: KindPairs, Pairs: []workload.Pair{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}}
	case 6:
		s.Workload = Workload{Kind: KindOnline, Horizon: 10 + rng.Intn(100), Seed: rng.Int63n(1000), Rate: 0.1 + 0.8*rng.Float64()}
		switch rng.Intn(4) {
		case 0:
			s.Workload.Process = ProcessBernoulli
		case 1:
			s.Workload.Process = ProcessOnOff
			s.Workload.Burst = 1 + rng.Intn(8)
			s.Workload.Gap = 1 + rng.Intn(8)
		case 2:
			s.Workload.Process = ProcessHotspot
			s.Workload.Hotspots = 1 + rng.Intn(3)
		case 3:
			s.Workload.Process = ProcessTranspose
		}
		if rng.Intn(2) == 0 {
			s.Workload.Admission = []string{AdmissionRetry, AdmissionDrop}[rng.Intn(2)]
		}
		if rng.Intn(2) == 0 {
			s.Workload.Drain = true
		}
	}
	if s.Router == "rand-zigzag" && rng.Intn(2) == 0 {
		s.Seed = rng.Uint64()
	}
	if s.Router == "zigzag" && rng.Intn(2) == 0 {
		s.FaultAware = true
	}
	if rng.Intn(3) == 0 {
		s.CheckInvariants = Bool(rng.Intn(2) == 0)
	}
	if rng.Intn(3) == 0 {
		s.Faults = &Faults{Seed: rng.Int63n(100), Horizon: 1 + rng.Intn(50), LinkFailures: rng.Intn(5), MeanDownSteps: 1 + rng.Intn(10)}
	}
	if rng.Intn(3) == 0 {
		s.Watchdog = 100 + rng.Intn(1000)
	}
	if rng.Intn(3) == 0 {
		s.Workers = rng.Intn(4)
	}
	if rng.Intn(3) == 0 {
		s.MaxSteps = 1000 + rng.Intn(5000)
	}
	return s
}

// TestSpecJSONRoundTrip is the format's property test: any valid Spec
// survives JSON() → Parse unchanged, including pointer fields and nested
// structs.
func TestSpecJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		s := randomSpec(rng)
		data, err := s.JSON()
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("spec %d: parse %s: %v", i, data, err)
		}
		want, _ := json.Marshal(s)
		back, _ := json.Marshal(got)
		if string(want) != string(back) {
			t.Fatalf("spec %d: round trip changed the spec:\n in: %s\nout: %s", i, want, back)
		}
	}
}

// TestValidate is the typed-error table: each bad spec fails with a
// *ValidationError naming the offending field.
func TestValidate(t *testing.T) {
	base := func() *Spec {
		return &Spec{N: 8, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		field  string
	}{
		{"bad router", func(s *Spec) { s.Router = "warp-drive" }, "router"},
		{"k below 1", func(s *Spec) { s.K = 0 }, "k"},
		{"n below 1", func(s *Spec) { s.N = 0 }, "n"},
		{"bad topology", func(s *Spec) { s.Topology = "hypercube" }, "topology"},
		{"conflicting queue model", func(s *Spec) { s.Queues = QueuesPerInlink }, "queues"},
		{"unknown queue model", func(s *Spec) { s.Queues = "elastic" }, "queues"},
		{"seed on deterministic router", func(s *Spec) { s.Seed = 7 }, "seed"},
		{"fault-aware without variant", func(s *Spec) { s.FaultAware = true }, "fault_aware"},
		{"missing workload kind", func(s *Spec) { s.Workload.Kind = "" }, "workload.kind"},
		{"unknown workload kind", func(s *Spec) { s.Workload.Kind = "avalanche" }, "workload.kind"},
		{"bitrev on non-power-of-two", func(s *Spec) { s.N = 12; s.Workload.Kind = KindBitRev }, "workload.kind"},
		{"hh without h", func(s *Spec) { s.Workload.Kind = KindHH }, "workload.h"},
		{"empty pairs", func(s *Spec) { s.Workload = Workload{Kind: KindPairs} }, "workload.pairs"},
		{"pair out of range", func(s *Spec) {
			s.Workload = Workload{Kind: KindPairs, Pairs: []workload.Pair{{Src: 0, Dst: 64}}}
		}, "workload.pairs"},
		{"burst without horizon", func(s *Spec) { s.Workload = Workload{Kind: KindBurst} }, "workload.horizon"},
		{"bernoulli rate above 1", func(s *Spec) {
			s.Workload = Workload{Kind: KindBernoulli, Horizon: 10, Rate: 1.5}
		}, "workload.rate"},
		{"bernoulli rate zero", func(s *Spec) {
			s.Workload = Workload{Kind: KindBernoulli, Horizon: 10}
		}, "workload.rate"},
		{"online without horizon", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Rate: 0.1}
		}, "workload.horizon"},
		{"online rate zero", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10}
		}, "workload.rate"},
		{"online rate above 1", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 1.2}
		}, "workload.rate"},
		{"online unknown process", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 0.1, Process: "poissonish"}
		}, "workload.process"},
		{"online onoff without burst", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 0.1, Process: ProcessOnOff, Gap: 3}
		}, "workload.burst"},
		{"online onoff without gap", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 0.1, Process: ProcessOnOff, Burst: 3}
		}, "workload.gap"},
		{"online unknown admission", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 0.1, Admission: "bounce"}
		}, "workload.admission"},
		{"online hotspots on bernoulli process", func(s *Spec) {
			s.Workload = Workload{Kind: KindOnline, Horizon: 10, Rate: 0.1, Process: ProcessBernoulli, Hotspots: 2}
		}, "workload.hotspots"},
		{"process on static kind", func(s *Spec) { s.Workload.Process = ProcessBernoulli }, "workload.process"},
		{"admission on static kind", func(s *Spec) { s.Workload.Admission = AdmissionDrop }, "workload.admission"},
		{"drain on static kind", func(s *Spec) { s.Workload.Drain = true }, "workload.drain"},
		{"burst knob on static kind", func(s *Spec) { s.Workload.Burst = 2 }, "workload.burst"},
		{"hotspots on static kind", func(s *Spec) { s.Workload.Hotspots = 1 }, "workload.hotspots"},
		{"offline router on dynamic workload", func(s *Spec) {
			s.Router = "scheduled"
			s.Workload = Workload{Kind: KindBurst, Horizon: 40}
		}, "router"},
		{"offline router on per-inlink queues", func(s *Spec) {
			s.Router = "scheduled"
			s.Queues = QueuesPerInlink
		}, "queues"},
		{"negative watchdog", func(s *Spec) { s.Watchdog = -1 }, "watchdog"},
		{"negative workers", func(s *Spec) { s.Workers = -2 }, "workers"},
		{"negative budget", func(s *Spec) { s.MaxSteps = -5 }, "max_steps"},
		{"permanent fraction above 1", func(s *Spec) {
			s.Faults = &Faults{LinkFailures: 1, Horizon: 10, PermanentFrac: 2}
		}, "faults.permanent_frac"},
		{"faults without horizon", func(s *Spec) { s.Faults = &Faults{LinkFailures: 3} }, "faults.horizon"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			err := s.Validate()
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("want *ValidationError, got %v", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("want field %q, got %q (%v)", tc.field, verr.Field, verr)
			}
			if _, err := s.Build(); !errors.As(err, &verr) {
				t.Fatalf("Build should surface the same validation error, got %v", err)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base spec should validate: %v", err)
	}
}

// TestValidQueueAssertion checks that the queues field accepts the router's
// actual model.
func TestValidQueueAssertion(t *testing.T) {
	s := &Spec{N: 8, K: 1, Router: "thm15", Queues: QueuesPerInlink, Workload: Workload{Kind: KindTranspose}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestParseRejectsUnknownFields makes typos in scenario files loud.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"n": 8, "k": 2, "router": "dimorder", "max_stepz": 100, "workload": {"kind": "transpose"}}`))
	if err == nil || !strings.Contains(err.Error(), "max_stepz") {
		t.Fatalf("want unknown-field error naming max_stepz, got %v", err)
	}
}

// TestBuildAndRun runs a small scenario end to end through the Runner and
// checks the statistics are coherent.
func TestBuildAndRun(t *testing.T) {
	s := &Spec{N: 8, K: 2, Router: "zigzag", Workload: Workload{Kind: KindTranspose}}
	var r Runner
	res, err := r.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("run aborted: %v", res.Err)
	}
	if !res.Stats.Done || res.Stats.Delivered != res.Stats.Total || res.Stats.Total == 0 {
		t.Fatalf("incoherent stats: %+v", res.Stats)
	}
	if res.Stats.MaxQueue > 2 {
		t.Fatalf("queue bound k=2 violated: MaxQueue=%d", res.Stats.MaxQueue)
	}
}

// TestBuildAndRunOnline runs an online scenario end to end and checks the
// admission and throughput statistics the refactor added: the run executes
// exactly the horizon (no drain), every offered packet is accounted for as
// admitted, refused-and-retried, or dropped, and the competitive-throughput
// numbers are populated.
func TestBuildAndRunOnline(t *testing.T) {
	for _, admission := range []string{AdmissionRetry, AdmissionDrop} {
		t.Run(admission, func(t *testing.T) {
			s := &Spec{N: 8, K: 2, Router: "dimorder", Workload: Workload{
				Kind: KindOnline, Horizon: 120, Rate: 0.05, Seed: 3, Admission: admission,
			}}
			var r Runner
			res, err := r.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("run aborted: %v", res.Err)
			}
			if res.Steps != 120 {
				t.Fatalf("online run without drain must execute exactly the horizon, ran %d", res.Steps)
			}
			st := res.Stats
			if !st.Online {
				t.Fatalf("online run must mark Stats.Online: %+v", st)
			}
			if st.Offered <= 0 || st.Admitted <= 0 {
				t.Fatalf("no admissions recorded: %+v", st)
			}
			if st.Total != st.Admitted {
				t.Fatalf("materialized packets %d != admitted %d", st.Total, st.Admitted)
			}
			if admission == AdmissionRetry && st.Dropped != 0 {
				t.Fatalf("retry policy must never drop, dropped %d", st.Dropped)
			}
			if admission == AdmissionDrop && st.Offered != st.Admitted+st.Dropped {
				t.Fatalf("drop accounting leak: offered %d, admitted %d, dropped %d", st.Offered, st.Admitted, st.Dropped)
			}
			if st.Throughput <= 0 {
				t.Fatalf("throughput not populated: %+v", st)
			}
			if st.Delivered > 0 && (st.DelayP50 < 0 || st.DelayP95 < st.DelayP50 || st.DelayP99 < st.DelayP95) {
				t.Fatalf("delay percentiles out of order: p50=%v p95=%v p99=%v", st.DelayP50, st.DelayP95, st.DelayP99)
			}
			if rr := st.RefusalRate(); rr < 0 || rr > 1 {
				t.Fatalf("refusal rate outside [0,1]: %v", rr)
			}
		})
	}
}

// TestRunnerSeededRouter checks that Spec.Seed changes the randomized
// router's decision stream (and that seed 0 matches the registry default).
func TestRunnerSeededRouter(t *testing.T) {
	run := func(seed uint64) int {
		s := &Spec{N: 10, K: 2, Router: "rand-zigzag", Seed: seed, Workload: Workload{Kind: KindReversal}}
		var r Runner
		res, err := r.Run(context.Background(), s)
		if err != nil || res.Err != nil {
			t.Fatalf("seed %d: %v %v", seed, err, res.Err)
		}
		return res.Stats.Makespan
	}
	base := run(0)
	differs := false
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		if run(seed) != base {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("five distinct seeds all reproduced the seed-0 makespan; seeding appears dead")
	}
}

// TestRunnerCancellation checks that a context canceled before the run
// stops it before its first step with partial diagnostics, for a static
// and a burst spec, with and without a StepHook.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, s := range map[string]*Spec{
		"fast path":         {N: 16, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}},
		"instrumented path": {N: 12, K: 2, Router: "dimorder", Workload: Workload{Kind: KindBurst, Horizon: 200}},
	} {
		t.Run(name, func(t *testing.T) {
			var stats []RouteStats
			for _, hook := range []func(*sim.Network, int){nil, func(*sim.Network, int) { t.Error("the hook ran") }} {
				r := Runner{StepHook: hook}
				res, err := r.Run(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				var cerr *sim.CanceledError
				if !errors.As(res.Err, &cerr) {
					t.Fatalf("want *sim.CanceledError, got %v", res.Err)
				}
				if !res.Canceled() {
					t.Fatal("Canceled() should report true")
				}
				if !errors.Is(res.Err, context.Canceled) {
					t.Fatal("CanceledError should unwrap to context.Canceled")
				}
				if res.Steps != 0 || cerr.Steps != 0 {
					t.Fatalf("canceled before the run, yet it executed %d steps (error says %d)", res.Steps, cerr.Steps)
				}
				stats = append(stats, res.Stats)
			}
			if stats[0] != stats[1] {
				t.Fatalf("stats differ with a hook: %+v vs %+v", stats[1], stats[0])
			}
		})
	}
}

// TestRunnerStepHook checks the hook fires once per step with the engine's
// step counter.
func TestRunnerStepHook(t *testing.T) {
	s := &Spec{N: 6, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}}
	var steps []int
	r := Runner{StepHook: func(net *sim.Network, step int) { steps = append(steps, step) }}
	res, err := r.Run(context.Background(), s)
	if err != nil || res.Err != nil {
		t.Fatalf("%v %v", err, res.Err)
	}
	if len(steps) != res.Steps {
		t.Fatalf("hook fired %d times over %d steps", len(steps), res.Steps)
	}
	for i, got := range steps {
		if got != i+1 {
			t.Fatalf("hook %d saw step %d", i, got)
		}
	}
}

// TestRunnerWatchdogOnePath pins that a run reads the same with and
// without a StepHook, which only observes: each row runs both ways, and
// Steps, Stats and the metrics bytes must match. The rows are a watchdog
// abort (one watchdog event line, the abort step seen by the hook), the
// ways a run ends: a static one at delivery, a burst or online one without
// drain at exactly its horizon, an online one with drain at delivery, and
// two idle networks under a watchdog: a burst's quiet tail and an on/off
// gap run out their horizon, since an empty network is not a livelock.
func TestRunnerWatchdogOnePath(t *testing.T) {
	dir := t.TempDir()
	burst, err := Load(filepath.Join("..", "..", "testdata", "scenarios", "dynamic-thm15-n12-k1.json"))
	if err != nil {
		t.Fatal(err)
	}
	online := func(drain bool) *Spec {
		return &Spec{N: 8, K: 2, Router: "dimorder", Workload: Workload{
			Kind: KindOnline, Horizon: 120, Rate: 0.05, Seed: 3, Drain: drain,
		}}
	}
	withWatchdog := func(s *Spec, w int) *Spec {
		c := *s
		c.Watchdog = w
		return &c
	}
	for _, tc := range []struct {
		name  string
		spec  *Spec
		check func(t *testing.T, res *Result, metrics string)
	}{
		{"watchdog", &Spec{
			N: 6, K: 2, Router: "dimorder", Workload: Workload{Kind: KindReversal},
			Watchdog: 1, // no delivery can happen in one step on a 6×6 reversal
		}, func(t *testing.T, res *Result, metrics string) {
			var le *sim.LivelockError
			if !errors.As(res.Err, &le) {
				t.Fatalf("run error %v, want *sim.LivelockError", res.Err)
			}
			if n := strings.Count(metrics, `"k":"watchdog"`); n != 1 {
				t.Fatalf("%d watchdog event lines, want 1:\n%s", n, metrics)
			}
		}},
		{"static stops at delivery", &Spec{N: 8, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}},
			func(t *testing.T, res *Result, _ string) {
				if st := res.Stats; !st.Done || st.Steps != st.Makespan {
					t.Fatalf("static run: done %v after %d steps, makespan %d", st.Done, st.Steps, st.Makespan)
				}
			}},
		{"burst runs its horizon", burst, func(t *testing.T, res *Result, _ string) {
			if st := res.Stats; !st.Done || st.Makespan != 156 || st.Steps != 260 {
				t.Fatalf("burst run: done %v, makespan %d, %d steps; want true, 156, 260", st.Done, st.Makespan, st.Steps)
			}
		}},
		{"burst tail under a watchdog", withWatchdog(burst, 50), func(t *testing.T, res *Result, _ string) {
			const want = `{"makespan":156,"steps":260,"done":true,"delivered":2673,"total":2673,"max_queue":1,"avg_delay":10.851851851851851,"fault_drops":0,"online":true,"offered":2673,"admitted":2673,"throughput":10.28076923076923,"delay_p50":10,"delay_p95":23,"delay_p99":31}`
			if got, _ := json.Marshal(res.Stats); res.Err != nil || string(got) != want {
				t.Fatalf("error %v, stats %s; want none, %s", res.Err, got, want)
			}
		}},
		{"onoff gap under a watchdog", &Spec{N: 6, K: 2, Router: "dimorder", Watchdog: 20, Workload: Workload{
			Kind: KindOnline, Process: ProcessOnOff, Horizon: 200, Rate: 0.05, Burst: 5, Gap: 60, Seed: 1,
		}}, func(t *testing.T, res *Result, _ string) {
			// The 60-step gaps leave the network empty for longer than the
			// window: an idle step is progress, so the run reaches its horizon.
			if res.Err != nil || res.Steps != 200 {
				t.Fatalf("error %v after %d steps; want none after 200", res.Err, res.Steps)
			}
		}},
		{"online runs its horizon", online(false), func(t *testing.T, res *Result, _ string) {
			if st := res.Stats; st.Steps != 120 || !st.Online {
				t.Fatalf("online run without drain: %d steps, online %v; want 120, true", st.Steps, st.Online)
			}
		}},
		{"online drain stops at delivery", online(true), func(t *testing.T, res *Result, _ string) {
			if st := res.Stats; !st.Done || st.Steps < 120 || st.Steps >= online(true).StepBudget() {
				t.Fatalf("online run with drain: done %v after %d steps, budget %d", st.Done, st.Steps, online(true).StepBudget())
			}
		}},
		{"burst of horizon 1", &Spec{N: 8, K: 1, Router: "thm15", Queues: QueuesPerInlink, Workload: Workload{Kind: KindBurst, Horizon: 1}},
			func(t *testing.T, res *Result, _ string) {
				const want = `{"makespan":0,"steps":1,"done":true,"delivered":0,"total":0,"max_queue":0,"avg_delay":0,"fault_drops":0}`
				if got, _ := json.Marshal(res.Stats); string(got) != want {
					t.Fatalf("stats %s, want %s", got, want)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(name string, hook func(*sim.Network, int)) (*Result, string) {
				t.Helper()
				s := *tc.spec
				s.MetricsOut = filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "-")+"-"+name+".jsonl")
				r := Runner{StepHook: hook}
				res, err := r.Run(context.Background(), &s)
				if err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(s.MetricsOut)
				if err != nil {
					t.Fatal(err)
				}
				return res, string(data)
			}
			hooked := 0
			plain, plainMetrics := run("plain", nil)
			res, metrics := run("hooked", func(_ *sim.Network, step int) {
				if hooked++; step != hooked {
					t.Errorf("hook call %d saw step %d", hooked, step)
				}
			})
			if hooked != res.Steps {
				t.Errorf("the hook ran %d times over %d steps", hooked, res.Steps)
			}
			if plain.Steps != res.Steps || plain.Stats != res.Stats {
				t.Fatalf("the hook changed the run: %d steps %+v, without it %d steps %+v", res.Steps, res.Stats, plain.Steps, plain.Stats)
			}
			if metrics != plainMetrics {
				t.Fatalf("metrics differ with a hook:\n%s\nvs\n%s", metrics, plainMetrics)
			}
			tc.check(t, plain, plainMetrics)
		})
	}
}

// TestRunnerMetricsOut checks the Runner owns the metrics-sink lifecycle.
func TestRunnerMetricsOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.jsonl")
	s := &Spec{N: 6, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}, MetricsOut: out}
	var r Runner
	res, err := r.Run(context.Background(), s)
	if err != nil || res.Err != nil {
		t.Fatalf("%v %v", err, res.Err)
	}
	if res.StepSamples != res.Steps {
		t.Fatalf("wrote %d step samples over %d steps", res.StepSamples, res.Steps)
	}
}

// TestSweepOrderAndCancellation checks input-order results and graceful
// partial sweeps.
func TestSweepOrderAndCancellation(t *testing.T) {
	specs := []*Spec{
		{Name: "a", N: 6, K: 2, Router: "dimorder", Workload: Workload{Kind: KindTranspose}},
		{Name: "b", N: 8, K: 2, Router: "zigzag", Workload: Workload{Kind: KindReversal}},
		{Name: "c", N: 6, K: 1, Router: "thm15", Workload: Workload{Kind: KindTranspose}},
	}
	var r Runner
	results, err := r.Sweep(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || res.Spec.Name != specs[i].Name {
			t.Fatalf("result %d out of order or missing", i)
		}
		if res.Err != nil || !res.Stats.Done {
			t.Fatalf("%s: %v %+v", res.Spec.Name, res.Err, res.Stats)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err = r.Sweep(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			continue // skipped before starting: the graceful outcome
		}
		if res.Err != nil && !res.Canceled() {
			t.Fatalf("result %d: unexpected abort %v", i, res.Err)
		}
	}
}
