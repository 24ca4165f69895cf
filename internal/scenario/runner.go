package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"

	"meshroute/internal/obs"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
)

// Result is the outcome of executing one scenario. Run-level aborts
// (livelock, cancellation, invariant violations) land in Err with Net and
// Stats still populated, so callers can report partial progress and
// diagnostics; an exhausted step budget is not an abort — it shows up as
// Stats.Done == false, as sim.Network.Run reports it. Only setup failures
// prevent a Result.
type Result struct {
	// Spec is the executed spec.
	Spec *Spec
	// Net is the network after the run (partial state if Err != nil).
	Net *sim.Network
	// Steps is the number of steps executed.
	Steps int
	// Stats summarizes the run.
	Stats RouteStats
	// Err is the run-level abort, if any: *sim.LivelockError,
	// *sim.CanceledError, or an invariant violation.
	Err error
	// StepSamples and Spans count the metrics records written to
	// Spec.MetricsOut (0 when no sink was configured).
	StepSamples, Spans int
}

// Canceled reports whether the run was stopped by context cancellation.
func (r *Result) Canceled() bool {
	var cerr *sim.CanceledError
	return errors.As(r.Err, &cerr)
}

// Outcome is how a run ended, in the form the service reports a job and a
// fleet worker reports a cell: the statistics (partial when Error is set)
// and, for a run-level abort, its message, whether it was a cancellation
// and the engine's state snapshot at the abort.
type Outcome struct {
	Stats       RouteStats `json:"stats"`
	Error       string     `json:"error,omitempty"`
	Canceled    bool       `json:"canceled,omitempty"`
	Diagnostics string     `json:"diagnostics,omitempty"`
}

// Outcome classifies the run. It is the one place an abort becomes error
// text, a cancellation flag and diagnostics.
func (r *Result) Outcome() Outcome {
	o := Outcome{Stats: r.Stats}
	if r.Err != nil {
		o.Error = r.Err.Error()
		o.Canceled = r.Canceled()
		o.Diagnostics = fmt.Sprintf("%s", r.Net.CollectDiagnostics())
	}
	return o
}

// Runner executes built scenarios. The zero value is ready to use.
type Runner struct {
	// StepHook, when set, runs after every engine step (visualization
	// snapshots, custom progress reporting), including the step a watchdog
	// abort ends the run on. It does not change the run.
	StepHook func(net *sim.Network, step int)
	// Sink, when set, receives every executed run's step samples, spans
	// and fault events, in addition to any Spec.MetricsOut file sink. A
	// Sink shared by runs on several goroutines must be safe for
	// concurrent use (obs.Counters is; obs.Records is not).
	Sink obs.Sink
}

// Run builds and executes one spec. See RunBuilt for the error contract.
func (r *Runner) Run(ctx context.Context, s *Spec) (*Result, error) {
	run, err := s.Build()
	if err != nil {
		return nil, err
	}
	return r.RunBuilt(ctx, run)
}

// RunBuilt executes an already-built scenario under the context:
// cancellation is honored between steps and surfaces as a
// *sim.CanceledError in Result.Err. The returned error is non-nil only
// for setup problems (an unwritable metrics file); run-level aborts are
// reported via Result.Err so partial statistics stay available.
func (r *Runner) RunBuilt(ctx context.Context, run *Run) (*Result, error) {
	net, s := run.Net, run.Spec

	// The run's one sink: the metrics_out file, the caller's Sink, or both.
	var file *obs.JSONL
	var fileOut *os.File
	sink := r.Sink
	if s.MetricsOut != "" {
		f, err := os.Create(s.MetricsOut)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		fileOut, file = f, obs.NewJSONL(f)
		sink = file
		if r.Sink != nil {
			sink = obs.Multi{file, r.Sink}
		}
	}
	if sink != nil {
		net.SetMetricsSink(sink)
	}

	steps, runErr := net.Run(ctx, run.NewAlg(), run.Budget, r.StepHook)

	res := &Result{
		Spec:  s,
		Net:   net,
		Steps: steps,
		Err:   runErr,
		Stats: RouteStats{
			Makespan:   net.Metrics.Makespan,
			Steps:      steps,
			Done:       net.Done(),
			Delivered:  net.DeliveredCount(),
			Total:      net.TotalPackets(),
			MaxQueue:   net.Metrics.MaxQueueLen,
			AvgDelay:   net.AvgDelay(),
			FaultDrops: net.Metrics.FaultDrops,
		},
	}
	if net.OpenWorkload() {
		st := &res.Stats
		st.Online = true
		st.Offered = net.Metrics.Offered
		st.Admitted = net.Metrics.Admitted
		st.Refused = net.Metrics.Refused
		st.Dropped = net.Metrics.Dropped
		if steps > 0 {
			st.Throughput = float64(st.Delivered) / float64(steps)
		}
		// Time-in-system percentiles over delivered packets, from a
		// histogram of their delays, none longer than the run. Only open
		// workloads pay for the packet scan; static runs report zeros.
		ps := &net.P
		counts := make([]int, net.Step()+1)
		for p := sim.PacketID(1); int(p) <= ps.Len(); p++ {
			if d := ps.DeliverStep[p]; d >= 0 {
				counts[d-ps.InjectStep[p]]++
			}
		}
		qs := stats.CountQuantiles(counts, 0.50, 0.95, 0.99)
		st.DelayP50, st.DelayP95, st.DelayP99 = qs[0], qs[1], qs[2]
	}
	if run.Analysis != nil {
		ar := run.Analysis()
		st := &res.Stats
		st.Analyzed = true
		st.Congestion, st.Dilation = ar.Congestion, ar.Dilation
		st.CDRatio = ar.Ratio(st.Makespan)
		if sink != nil {
			sink.Run(obs.RunSummary{
				Scenario:   s.Name,
				Router:     s.Router,
				Makespan:   st.Makespan,
				Congestion: ar.Congestion,
				Dilation:   ar.Dilation,
				CDRatio:    st.CDRatio,
			})
		}
	}

	if file != nil {
		res.StepSamples, res.Spans = file.StepCount(), file.SpanCount()
		if err := file.Close(); err != nil {
			return nil, err
		}
		if err := fileOut.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}
