package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"

	"meshroute/internal/obs"
	"meshroute/internal/par"
	"meshroute/internal/sim"
	"meshroute/internal/stats"
	"meshroute/internal/trace"
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
	// Workers bounds Sweep's cross-scenario fan-out (0 = GOMAXPROCS).
	Workers int
	// StepHook, when set, runs after every engine step (visualization
	// snapshots, custom progress reporting), including the step a watchdog
	// abort ends the run on. It does not change the run.
	StepHook func(net *sim.Network, step int)
	// Sink, when set, receives every executed run's step samples, spans
	// and fault events, in addition to any Spec.MetricsOut file sink.
	// Sweep executes scenarios concurrently, so a Sink shared across a
	// sweep must be safe for concurrent use (obs.Counters is; obs.Memory
	// is not).
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
// for setup problems (unwritable output files); run-level aborts are
// reported via Result.Err so partial statistics stay available.
func (r *Runner) RunBuilt(ctx context.Context, run *Run) (*Result, error) {
	net, s := run.Net, run.Spec

	var sink *obs.JSONL
	var sinkOut *os.File
	if s.MetricsOut != "" {
		f, err := os.Create(s.MetricsOut)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		sinkOut = f
		sink = obs.NewJSONL(f)
	}
	switch {
	case sink != nil && r.Sink != nil:
		net.SetMetricsSink(obs.Multi{sink, r.Sink})
	case sink != nil:
		net.SetMetricsSink(sink)
	case r.Sink != nil:
		net.SetMetricsSink(r.Sink)
	}
	var rec *trace.Recorder
	var traceOut *os.File
	if s.TraceOut != "" {
		f, err := os.Create(s.TraceOut)
		if err != nil {
			if sinkOut != nil {
				sinkOut.Close()
			}
			return nil, fmt.Errorf("scenario %s: %w", s.describe(), err)
		}
		traceOut = f
		rec = trace.NewRecorder(f)
		rec.Attach(net)
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
		summary := obs.RunSummary{
			Scenario:   s.Name,
			Router:     s.Router,
			Makespan:   st.Makespan,
			Congestion: ar.Congestion,
			Dilation:   ar.Dilation,
			CDRatio:    st.CDRatio,
		}
		if sink != nil {
			sink.Run(summary)
		}
		if rs, ok := r.Sink.(obs.RunSink); ok {
			rs.Run(summary)
		}
	}

	if rec != nil {
		if err := rec.Close(); err != nil {
			return nil, err
		}
		if err := traceOut.Close(); err != nil {
			return nil, err
		}
	}
	if sink != nil {
		res.StepSamples, res.Spans = sink.StepCount(), sink.SpanCount()
		if err := sink.Close(); err != nil {
			return nil, err
		}
		if err := sinkOut.Close(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Sweep builds and executes the specs on a bounded worker pool (Workers
// wide) and returns results in input order. Cells that had not started
// when the context was canceled come back nil; cells interrupted mid-run
// carry a *sim.CanceledError in their Result.Err. The returned error
// reports the first (lowest-index) setup failure, wrapped with the
// offending spec's index and label so a failed cell in a large batch is
// attributable; the underlying cause (e.g. *ValidationError) stays
// reachable through errors.As. Cancellation itself is not an error, so
// callers can print the partial table.
func (r *Runner) Sweep(ctx context.Context, specs []*Spec) ([]*Result, error) {
	return par.Map(len(specs), r.Workers, func(i int) (*Result, error) {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil
		}
		res, err := r.Run(ctx, specs[i])
		if err != nil {
			return nil, fmt.Errorf("sweep spec %d (%s): %w", i, specs[i].describe(), err)
		}
		return res, nil
	})
}
