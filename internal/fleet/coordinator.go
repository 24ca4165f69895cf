package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"meshroute/internal/scenario"
)

// Config parameterizes a Coordinator. The zero value gets sensible
// defaults from NewCoordinator.
type Config struct {
	// Client performs cell dispatches. Its Transport is the seam the
	// chaos harness injects faults through. Default: a dedicated client
	// with no global timeout (per-attempt deadlines bound every request).
	Client *http.Client
	// HeartbeatTimeout is how long a worker may go without re-announcing
	// before it is considered dead and excluded from dispatch. Default 6s.
	HeartbeatTimeout time.Duration
	// CellDeadline caps one dispatch attempt's wall time. An attempt past
	// it is abandoned — canceling the worker-side run — and the cell is
	// re-dispatched, which is how stragglers get work-stolen. Default 5m.
	CellDeadline time.Duration
	// MaxAttempts bounds dispatch attempts per cell. Default 4.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the exponential retry backoff:
	// attempt i sleeps Base·2^(i-1) with ±50% jitter, capped at Cap.
	// Defaults 100ms and 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed drives the jitter RNG, so chaos tests get a reproducible
	// backoff sequence. Default 1.
	Seed int64
	// BreakerThreshold consecutive failures open a worker's circuit
	// breaker; BreakerCooldown is how long it stays open before a
	// half-open probe. Defaults 3 and 5s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	url      string
	lastSeen time.Time
	inflight int
	done     int64
	failed   int64
	br       breaker
}

// WorkerStatus is the JSON shape of one worker in GET /v1/workers and the
// /metrics fleet block.
type WorkerStatus struct {
	// URL is the worker's advertised base URL.
	URL string `json:"url"`
	// Alive reports a heartbeat within the timeout.
	Alive bool `json:"alive"`
	// Breaker is the circuit breaker position (closed/open/half-open).
	Breaker string `json:"breaker"`
	// Inflight is the number of cells currently dispatched to the worker.
	Inflight int `json:"inflight"`
	// CellsDone and CellsFailed count completed and failed dispatches.
	CellsDone   int64 `json:"cells_done"`
	CellsFailed int64 `json:"cells_failed"`
	// LastSeenSecondsAgo is the age of the last heartbeat.
	LastSeenSecondsAgo float64 `json:"last_seen_seconds_ago"`
}

// Totals aggregates the coordinator's dispatch counters.
type Totals struct {
	// Dispatches counts every attempt sent to a worker.
	Dispatches int64 `json:"dispatches"`
	// Retries counts attempts past each cell's first.
	Retries int64 `json:"retries"`
	// CellsCompleted counts cells that returned a result.
	CellsCompleted int64 `json:"cells_completed"`
	// CellsFailed counts cells that exhausted the fleet's retry budget.
	CellsFailed int64 `json:"cells_failed"`
}

// Coordinator shards cells across registered workers. Create with
// NewCoordinator; it is safe for concurrent use.
type Coordinator struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // registration order, for deterministic listing
	rng     *rand.Rand
	totals  Totals
}

// NewCoordinator creates a Coordinator with cfg (zero fields defaulted).
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 6 * time.Second
	}
	if cfg.CellDeadline <= 0 {
		cfg.CellDeadline = 5 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	return &Coordinator{
		cfg:     cfg,
		client:  cfg.Client,
		workers: make(map[string]*workerState),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Register adds a worker by base URL, or refreshes its heartbeat if it is
// already known. A worker that died and re-announced comes back with its
// breaker reset — the restart is a fresh process.
func (c *Coordinator) Register(url string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[url]
	if w == nil {
		w = &workerState{
			url: url,
			br:  breaker{threshold: c.cfg.BreakerThreshold, cooldown: c.cfg.BreakerCooldown},
		}
		c.workers[url] = w
		c.order = append(c.order, url)
	} else if now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
		w.br.success() // a returning worker starts with a closed breaker
	}
	w.lastSeen = now
}

// Alive returns the number of workers with a live heartbeat.
func (c *Coordinator) Alive() int {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout {
			n++
		}
	}
	return n
}

// Workers snapshots every registered worker in registration order.
func (c *Coordinator) Workers() []WorkerStatus {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, 0, len(c.order))
	for _, url := range c.order {
		w := c.workers[url]
		out = append(out, WorkerStatus{
			URL:                w.url,
			Alive:              now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout,
			Breaker:            w.br.state(now),
			Inflight:           w.inflight,
			CellsDone:          w.done,
			CellsFailed:        w.failed,
			LastSeenSecondsAgo: now.Sub(w.lastSeen).Seconds(),
		})
	}
	return out
}

// Stats snapshots the dispatch totals.
func (c *Coordinator) Stats() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// pick selects the dispatch target: among live workers whose breaker
// allows traffic, the one with the fewest in-flight cells (registration
// order breaks ties), avoiding the previous attempt's worker when any
// alternative exists. It returns nil with alive==0 when every worker is
// dead, and nil with alive>0 when live workers exist but none admits
// traffic right now (breakers open).
func (c *Coordinator) pick(avoid string) (w *workerState, alive int) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	for _, url := range c.order {
		cand := c.workers[url]
		if now.Sub(cand.lastSeen) > c.cfg.HeartbeatTimeout {
			continue
		}
		alive++
		if !cand.br.allow(now) {
			continue
		}
		if best == nil || cand.inflight < best.inflight ||
			(cand.inflight == best.inflight && best.url == avoid) {
			best = cand
		}
	}
	// Prefer any admissible alternative over the worker that just failed.
	if best != nil && best.url == avoid {
		for _, url := range c.order {
			cand := c.workers[url]
			if cand.url == avoid || now.Sub(cand.lastSeen) > c.cfg.HeartbeatTimeout || !cand.br.allow(now) {
				continue
			}
			if best.url == avoid || cand.inflight < best.inflight {
				best = cand
			}
		}
	}
	if best != nil {
		best.inflight++
	}
	return best, alive
}

// release returns a dispatch slot and folds the attempt's outcome into
// the worker's breaker and counters.
func (c *Coordinator) release(w *workerState, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.inflight--
	if ok {
		w.done++
		w.br.success()
	} else {
		w.failed++
		w.br.failure(time.Now())
	}
}

// backoff returns the sleep before retry attempt n (n=1 is the first
// retry): exponential from BackoffBase with ±50% deterministic jitter,
// capped at BackoffCap.
func (c *Coordinator) backoff(n int) time.Duration {
	d := c.cfg.BackoffBase
	for i := 1; i < n && d < c.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d))) // [0, d)
	c.mu.Unlock()
	d = d/2 + jitter // uniform in [d/2, 3d/2)
	if d > c.cfg.BackoffCap {
		d = c.cfg.BackoffCap
	}
	return d
}

// Execute runs one cell on the fleet: it picks a live worker, dispatches
// the spec, and on transport errors, 5xx, 429, truncated responses or
// per-attempt deadline expiry retries on (preferably) another worker with
// exponential backoff until MaxAttempts is exhausted. The error is nil on
// a completed cell (including deterministic run-level aborts, which come
// back inside the CellResult), ErrNoWorkers (wrapped) when no live worker
// remains, ctx.Err() when the caller gave up, and a *CellError otherwise.
func (c *Coordinator) Execute(ctx context.Context, spec *scenario.Spec) (*CellResult, error) {
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	body, err := spec.JSON()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 1 {
			c.addRetry()
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.backoff(attempt - 1)):
			}
		}
		var avoid string
		if lastErr != nil {
			var ae *attemptError
			if errors.As(lastErr, &ae) {
				avoid = ae.worker
			}
		}
		w, alive := c.pick(avoid)
		if w == nil {
			if alive == 0 {
				return nil, fmt.Errorf("cell %.12s: %w", fp, ErrNoWorkers)
			}
			// Live workers exist but every breaker is open: burn the
			// attempt on the cooldown and try again.
			lastErr = errors.New("fleet: all worker breakers open")
			continue
		}
		res, err := c.dispatch(ctx, w, body)
		if err == nil {
			c.release(w, true)
			c.addCompleted()
			res.Worker = w.url
			res.Attempts = attempt
			return res, nil
		}
		c.release(w, false)
		if errors.Is(err, ctx.Err()) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		lastErr = err
		var perm *permanentError
		if errors.As(err, &perm) {
			c.addFailed()
			return nil, &CellError{Fingerprint: fp, Attempts: attempt, Err: perm.err}
		}
	}
	c.addFailed()
	return nil, &CellError{Fingerprint: fp, Attempts: c.cfg.MaxAttempts, Err: lastErr}
}

func (c *Coordinator) addRetry() {
	c.mu.Lock()
	c.totals.Retries++
	c.mu.Unlock()
}

func (c *Coordinator) addCompleted() {
	c.mu.Lock()
	c.totals.CellsCompleted++
	c.mu.Unlock()
}

func (c *Coordinator) addFailed() {
	c.mu.Lock()
	c.totals.CellsFailed++
	c.mu.Unlock()
}

// attemptError is one failed dispatch attempt, tagged with the worker so
// the next attempt can avoid it.
type attemptError struct {
	worker string
	err    error
}

func (e *attemptError) Error() string { return fmt.Sprintf("worker %s: %v", e.worker, e.err) }
func (e *attemptError) Unwrap() error { return e.err }

// dispatch performs one POST /v1/cells attempt against w under the
// per-cell deadline, reads the NDJSON response whole and splits off its
// final line, the result; the event lines before it stay one block of
// bytes, never decoded. Every failure short of a
// well-formed result line — transport error, non-200, truncated stream, a
// final line that is not a "t":"cell" record with totals — is an
// *attemptError (retryable) except a 400, which is
// permanent: the worker rejected the spec itself and every other worker
// would too.
func (c *Coordinator) dispatch(ctx context.Context, w *workerState, body []byte) (*CellResult, error) {
	c.mu.Lock()
	c.totals.Dispatches++
	c.mu.Unlock()

	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.CellDeadline)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, w.url+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, &attemptError{worker: w.url, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, &attemptError{worker: w.url, err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(msg))
		if resp.StatusCode == http.StatusBadRequest {
			return nil, &permanentError{err: fmt.Errorf("worker %s: %w", w.url, err)}
		}
		return nil, &attemptError{worker: w.url, err: err}
	}

	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &attemptError{worker: w.url, err: fmt.Errorf("mid-stream disconnect: %w", err)}
	}
	// The last line is the result; a body not ending in a newline was cut
	// inside its last line, so it has none.
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, &attemptError{worker: w.url, err: errors.New("mid-stream disconnect: response ended without a cell result")}
	}
	cut := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	events, last := data[:cut], data[cut:]
	var cl cellLine
	if err := json.Unmarshal(last, &cl); err != nil || cl.T != lineCell || cl.Totals == nil {
		return nil, &attemptError{worker: w.url, err: errors.New("mid-stream disconnect: final line is not a cell result")}
	}
	return &CellResult{
		Outcome:       cl.Outcome,
		Totals:        *cl.Totals,
		Events:        events,
		EventLines:    bytes.Count(events, []byte{'\n'}),
		EventsDropped: cl.EventsDropped,
	}, nil
}
