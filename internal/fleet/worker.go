package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// WorkerConfig parameterizes a Worker. The zero value gets sensible
// defaults from NewWorker.
type WorkerConfig struct {
	// Slots bounds concurrently executing cells; dispatches past it are
	// refused with 429 and retried elsewhere by the coordinator.
	// Default: GOMAXPROCS.
	Slots int
	// EventBuffer caps buffered metrics lines per cell; further step
	// samples are counted as dropped — the same bound internal/service
	// applies to local jobs, so remote streams stay byte-identical.
	// Default: 65536.
	EventBuffer int
}

// Worker executes cells for a coordinator: POST /v1/cells runs one spec
// synchronously and answers with the cell's event lines and result as
// NDJSON. Create with NewWorker, expose via Handler, and keep the worker
// registered with Announce.
type Worker struct {
	cfg WorkerConfig
	mux *http.ServeMux
	sem chan struct{}

	// testCellStart (nil in production) runs after a cell is admitted,
	// before the simulation — the seam kill-mid-cell tests synchronize on.
	testCellStart func(spec *scenario.Spec)
}

// NewWorker creates a Worker with cfg (zero fields defaulted).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Slots <= 0 {
		cfg.Slots = runtime.GOMAXPROCS(0)
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 65536
	}
	w := &Worker{cfg: cfg, mux: http.NewServeMux(), sem: make(chan struct{}, cfg.Slots)}
	w.mux.HandleFunc("POST /v1/cells", w.handleCell)
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(rw, `{"status":"ok"}`)
	})
	return w
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler { return w.mux }

// workerError writes the JSON error shape the coordinator expects on
// non-200 responses.
func workerError(rw http.ResponseWriter, code int, format string, args ...any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(struct { //nolint:errcheck // response write errors are the coordinator's problem
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// handleCell is POST /v1/cells: parse, admit against the slot bound, run
// the spec under the request context (the coordinator abandoning the
// attempt cancels the run), and stream events + result. The body is
// buffered until the run finishes, so a well-formed response always
// carries a complete cell.
func (w *Worker) handleCell(rw http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(rw, r.Body, 8<<20)
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(body); err != nil {
		workerError(rw, http.StatusBadRequest, "read body: %v", err)
		return
	}
	spec, err := scenario.Parse(data.Bytes())
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if spec.MetricsOut != "" {
		workerError(rw, http.StatusBadRequest, "metrics_out is a worker-side file path and is not accepted")
		return
	}
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	default:
		workerError(rw, http.StatusTooManyRequests, "worker at capacity (%d cells in flight)", w.cfg.Slots)
		return
	}
	if w.testCellStart != nil {
		w.testCellStart(spec)
	}

	// The same pair of sinks a local service job runs under: the counters
	// see every record, the event log keeps the bounded stream.
	var counters obs.Counters
	events := obs.NewEventLog(w.cfg.EventBuffer)
	runner := scenario.Runner{Sink: obs.Multi{&counters, events}}
	res, err := runner.Run(r.Context(), spec)
	if err != nil {
		workerError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	totals := counters.Totals()
	cl := cellLine{T: lineCell, Outcome: res.Outcome(), Totals: &totals, EventsDropped: events.Dropped()}
	final, err := json.Marshal(cl)
	if err != nil {
		workerError(rw, http.StatusInternalServerError, "encode result: %v", err)
		return
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	// The log is done with, so the result line goes on its end and the
	// whole response is one write.
	rw.Write(append(append(events.Bytes(), final...), '\n')) //nolint:errcheck // the coordinator is gone; it will retry elsewhere
}

// Announce registers selfURL with the coordinator and re-announces every
// interval — the fleet's heartbeat — until ctx is done. Send failures are
// reported through logf (nil discards them) and retried at the next tick;
// the coordinator treats a quiet worker as dead after its heartbeat
// timeout and routes around it, so a missed beat is never fatal here.
func Announce(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration, logf func(format string, args ...any)) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	body, _ := json.Marshal(struct {
		URL string `json:"url"`
	}{selfURL})
	beat := func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+"/v1/workers", bytes.NewReader(body))
		if err != nil {
			if logf != nil {
				logf("fleet: announce: %v", err)
			}
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			if logf != nil && ctx.Err() == nil {
				logf("fleet: announce %s: %v", coordinatorURL, err)
			}
			return
		}
		resp.Body.Close()
		if resp.StatusCode/100 != 2 && logf != nil {
			logf("fleet: announce %s: status %s", coordinatorURL, resp.Status)
		}
	}
	beat()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			beat()
		}
	}
}
