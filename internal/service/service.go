// Package service is the long-running control plane of the reproduction:
// an HTTP simulation service (cmd/meshrouted) that accepts scenario specs,
// executes them on a bounded worker pool behind a FIFO job queue, and
// serves results, operational metrics and per-step event streams.
//
// The admission discipline mirrors the bounded-buffer routing the
// repository studies: capacity is explicit (worker pool width, queue
// depth), arrivals beyond capacity are refused immediately (HTTP 429)
// rather than buffered without bound, and every admitted job is eventually
// served or deliberately dropped (canceled). A content-addressed result
// cache keyed by scenario.Spec.Fingerprint exploits the engine's
// determinism: a resubmitted spec is answered from the cache without
// simulating at all.
//
// See docs/SERVICE.md for the API reference, job lifecycle, cache
// semantics and the backpressure contract.
package service

import (
	"cmp"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"meshroute/internal/fleet"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
	"meshroute/internal/sim"
)

// Config parameterizes a Server. The zero value gets sensible defaults
// from New.
type Config struct {
	// Workers is the simulation worker-pool width — the number of jobs
	// running concurrently. Default: GOMAXPROCS.
	Workers int
	// QueueDepth is the FIFO job-queue capacity. Submissions that would
	// exceed it are refused with HTTP 429. Default: 64.
	QueueDepth int
	// CacheSize is the result cache's capacity in entries; negative
	// disables caching. Default: 256.
	CacheSize int
	// MaxJobSteps, when positive, rejects (HTTP 400) any spec whose
	// effective step budget — max_steps, the automatic budget, or a
	// dynamic workload's horizon — exceeds it. The budget is never
	// silently clamped: that would change what the spec means.
	MaxJobSteps int
	// EventBuffer is the per-job cap on buffered NDJSON event records;
	// further step samples are counted as dropped. Default: 65536.
	EventBuffer int
	// RetainJobs bounds the in-memory job registry; the oldest terminal
	// jobs are evicted past it. Default: 4096.
	RetainJobs int
	// Fleet, when non-nil, makes this server a coordinator: jobs are
	// dispatched to registered fleet workers (POST /v1/workers to
	// register, GET /v1/workers to inspect) and executed in-process only
	// while no live worker exists. The server's cache and singleflight
	// sit in front of dispatch, so identical specs run once fleet-wide.
	Fleet *fleet.Coordinator
}

// Server is the simulation service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	counters *obs.Counters
	cache    *cache
	queue    chan *job
	stop     chan struct{}
	workerWg sync.WaitGroup

	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	mu       sync.Mutex
	idleCond *sync.Cond
	// jobs is the registry in submission order, which is id order.
	jobs []*record
	// sealed totals the sealed event logs of the retained jobs.
	sealed   EventMetrics
	inflight map[fingerprint]*job // executing job by spec (singleflight)
	dedups   int64                // submissions coalesced onto an in-flight job
	nextID   int
	active   int // admitted, not yet terminal (cache hits never count)
	draining bool

	// durations is a ring of recent executed-job wall times (seconds),
	// the Retry-After estimator's input.
	durations []float64
	durNext   int
	durCount  int

	shutdownOnce sync.Once
	start        time.Time

	// Test seams (nil in production): testJobStart runs after a job
	// transitions to running, before the simulation; testStepHook is
	// installed as the job Runner's StepHook.
	testJobStart func(j *job)
	testStepHook func(id string, step int)
}

// New creates a Server with cfg (zero fields defaulted) and starts its
// worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 65536
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 4096
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		counters:  &obs.Counters{},
		cache:     newCache(cfg.CacheSize),
		queue:     make(chan *job, cfg.QueueDepth),
		stop:      make(chan struct{}),
		inflight:  make(map[fingerprint]*job),
		durations: make([]float64, 32),
		start:     time.Now(),
	}
	s.idleCond = sync.NewCond(&s.mu)
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())

	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Fleet != nil {
		s.mux.HandleFunc("POST /v1/workers", s.handleWorkerRegister)
		s.mux.HandleFunc("GET /v1/workers", s.handleWorkerList)
	}

	for i := 0; i < cfg.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: new submissions are refused (503), jobs
// already admitted keep running until they finish or ctx expires —
// whichever comes first — and expiry cancels them (they retire as
// canceled with partial stats, like a DELETE). The worker pool exits
// before Shutdown returns, so a returned Shutdown means no service
// goroutines remain. Safe to call once; concurrent callers block until
// the first call completes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()

		idle := make(chan struct{})
		go func() {
			s.mu.Lock()
			for s.active > 0 {
				s.idleCond.Wait()
			}
			s.mu.Unlock()
			close(idle)
		}()
		select {
		case <-idle:
		case <-ctx.Done():
			s.jobsCancel() // abort running jobs between engine steps
			<-idle
		}
		close(s.stop)
		s.workerWg.Wait()
		s.jobsCancel()
	})
	return nil
}

// WaitJob blocks until the job reaches a terminal state (or ctx is
// canceled) and returns its status; ok is false for an unknown id.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, bool) {
	r, j := s.lookup(id)
	if r == nil {
		return JobStatus{}, false
	}
	if j != nil {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
	}
	return s.status(r), true
}

// Counters returns the shared engine-counter sink (total steps, moves,
// deliveries across all jobs).
func (s *Server) Counters() *obs.Counters { return s.counters }

// lookup returns a job's record and, until the job retires, the job.
func (s *Server) lookup(id string) (*record, *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.findLocked(id); r != nil {
		return r, r.live
	}
	return nil, nil
}

// findLocked returns the retained job of an id, or nil: a binary search,
// since ids count up in submission order.
func (s *Server) findLocked(id string) *record {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	i, ok := slices.BinarySearchFunc(s.jobs, seq, func(r *record, seq int) int { return cmp.Compare(r.seq, seq) })
	if err != nil || !ok || s.jobs[i].id() != id {
		return nil
	}
	return s.jobs[i]
}

// status snapshots a record for an API response.
func (s *Server) status(r *record) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.statusLocked()
}

// retire swaps the record in for a job that has finished (won
// job.finish): it releases the job's context and seals its log, which the
// record keeps; from then on the registry holds nothing else of the job.
// An executing job also releases its singleflight slot, retires every
// submission attached to it with its outcome and balances the active
// count, waking Shutdown when the service goes idle. Waiters on the job
// wake once the record is in place.
func (s *Server) retire(j *job) {
	j.cancel() // release the context even on natural completion
	if j.stream == nil {
		// A deduped job: its record reads its primary's log.
		s.mu.Lock()
		j.live = nil
		s.mu.Unlock()
		close(j.done)
		return
	}
	j.stream.close()
	if j.state == StateDone {
		s.cache.put(j.fingerprint, &j.stats)
	}
	s.mu.Lock()
	j.live, j.log = nil, *j.stream.log
	s.sealed.RetainedBytes += int64(j.log.Retained())
	s.sealed.RawBytes += int64(j.log.Len())
	if s.inflight[j.fingerprint] == j {
		delete(s.inflight, j.fingerprint)
	}
	attached := j.attached
	j.attached = nil
	s.mu.Unlock()
	close(j.done)
	var stats *Stats
	if j.hasStats {
		stats = &j.stats
	}
	for _, a := range attached {
		a.finish(j.state, stats, j.errMsg, j.diagnostics)
	}
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
}

// pack compresses a retired job's sealed log outside any lock (its lines
// are final) and packs the record's log, unless the job has been evicted
// since. Followers that read the raw log read on: nothing rewrites it.
// The worker that ran the job calls pack once, after its next job (see
// worker); a nil record packs nothing.
func (s *Server) pack(r *record) {
	if r == nil {
		return
	}
	s.mu.Lock()
	raw := r.log
	s.mu.Unlock()
	if raw.Len() == 0 {
		return
	}
	z := obs.Compress(raw.Bytes())
	s.mu.Lock()
	if !r.evicted {
		r.log.Pack(z)
		s.sealed.RetainedBytes += int64(r.log.Retained() - raw.Retained())
	}
	s.mu.Unlock()
}

// worker executes queued jobs until the stop channel closes; any jobs
// still queued at that point (only possible if Shutdown's accounting has
// already retired them) are drained defensively.
func (s *Server) worker() {
	defer s.workerWg.Done()
	// last is the previous job. Its sealed log is packed once the next
	// job is done, or the worker stops: the job's submitter, the usual
	// follower, reads the log just after the job retires, and so reads it
	// raw instead of inflating it.
	var last *record
	defer func() { s.pack(last) }()
	for {
		select {
		case j := <-s.queue:
			s.runJob(j)
			s.pack(last)
			last = j.record
		case <-s.stop:
			for {
				select {
				case j := <-s.queue:
					j.finish(StateCanceled, nil, "server shut down before the job started", "")
				default:
					return
				}
			}
		}
	}
}

// runJob executes one job and retires it: done with its stats cached, or
// failed or canceled, with partial stats if a run took place.
func (s *Server) runJob(j *job) {
	if !j.start() {
		return // canceled while queued; already retired
	}
	if j.ctx.Err() != nil {
		j.finish(StateCanceled, nil, "canceled before the job started", "")
		return
	}
	if s.testJobStart != nil {
		s.testJobStart(j)
	}
	began := time.Now()
	defer func() { s.recordDuration(time.Since(began)) }()
	o, err := s.execute(j)
	stats := &o.Stats
	if err != nil {
		stats, o.Error = nil, err.Error()
	}
	switch {
	case o.Canceled:
		j.finish(StateCanceled, stats, o.Error, o.Diagnostics)
	case o.Error != "":
		j.finish(StateFailed, stats, o.Error, o.Diagnostics)
	default:
		j.finish(StateDone, stats, "", "")
	}
}

// execute runs one job — on the fleet when this server coordinates one
// with live workers, in-process otherwise, and in-process as well if the
// fleet loses its last worker before dispatch — feeding the shared
// counters and the job's event stream. The error reports a job that
// produced no run: a setup failure, or a fleet dispatch that failed or,
// with the Outcome's Canceled set, was canceled.
func (s *Server) execute(j *job) (scenario.Outcome, error) {
	if s.cfg.Fleet != nil && s.cfg.Fleet.Alive() > 0 {
		res, err := s.cfg.Fleet.Execute(j.ctx, j.spec)
		switch {
		case err == nil:
			// Commit the worker's event lines verbatim (byte-identical to a
			// local run) and add the totals the worker counted while
			// producing them to the shared counters, so /metrics aggregates
			// fleet-wide engine throughput exactly as if the cell had run
			// here.
			j.stream.commit(res.Events, res.EventLines, res.EventsDropped)
			s.counters.Add(res.Totals)
			return res.Outcome, nil
		case errors.Is(err, fleet.ErrNoWorkers):
			// Run it here.
		case j.ctx.Err() != nil:
			return scenario.Outcome{Canceled: true}, fmt.Errorf("canceled during fleet dispatch: %w", err)
		default:
			return scenario.Outcome{}, err
		}
	}
	runner := scenario.Runner{Sink: obs.Multi{s.counters, j.stream}}
	if s.testStepHook != nil {
		hook, jobID := s.testStepHook, j.id()
		runner.StepHook = func(net *sim.Network, step int) { hook(jobID, step) }
	}
	res, err := runner.Run(j.ctx, j.spec)
	if err != nil {
		return scenario.Outcome{}, err
	}
	return res.Outcome(), nil
}

// recordDuration folds one executed job's wall time into the ring behind
// the Retry-After estimate.
func (s *Server) recordDuration(d time.Duration) {
	s.mu.Lock()
	s.durations[s.durNext] = d.Seconds()
	s.durNext = (s.durNext + 1) % len(s.durations)
	if s.durCount < len(s.durations) {
		s.durCount++
	}
	s.mu.Unlock()
}

// retryAfterLocked estimates, in whole seconds, how long until the queue
// can take `needed` more jobs: the mean recent job duration times the
// shortfall, spread over the worker pool, clamped to [1, 60]. Before any
// job has finished the estimate is the 1-second floor. Caller holds s.mu.
func (s *Server) retryAfterLocked(needed int64) int {
	mean := 0.0
	for i := 0; i < s.durCount; i++ {
		mean += s.durations[i]
	}
	if s.durCount > 0 {
		mean /= float64(s.durCount)
	}
	free := s.cfg.QueueDepth - len(s.queue)
	shortfall := needed - int64(free)
	if shortfall < 1 {
		shortfall = 1
	}
	secs := int(mean*float64(shortfall)/float64(s.cfg.Workers)) + 1
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleWorkerRegister is POST /v1/workers (coordinator mode): a fleet
// worker announces {"url": base} to register and re-announces it as its
// heartbeat.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "parse registration: %v", err)
		return
	}
	u, err := url.Parse(body.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, "registration url %q is not an absolute URL", body.URL)
		return
	}
	s.cfg.Fleet.Register(body.URL)
	writeJSON(w, http.StatusOK, struct {
		Workers int `json:"workers"`
	}{s.cfg.Fleet.Alive()})
}

// handleWorkerList is GET /v1/workers (coordinator mode).
func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Workers []fleet.WorkerStatus `json:"workers"`
	}{s.cfg.Fleet.Workers()})
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // response write errors are the client's problem
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// admission is one submitted spec with its fingerprint and cache outcome.
type admission struct {
	spec *scenario.Spec
	fp   fingerprint
	hit  bool
	st   Stats
}

// vetSpec applies the service's submission policy to one parsed spec.
func (s *Server) vetSpec(spec *scenario.Spec) error {
	if spec.MetricsOut != "" {
		return fmt.Errorf("metrics_out is a server-side file path and is not accepted; stream GET /v1/jobs/{id}/events instead")
	}
	if s.cfg.MaxJobSteps > 0 {
		if budget := spec.StepBudget(); budget > s.cfg.MaxJobSteps {
			return fmt.Errorf("step budget %d exceeds the server's per-job cap %d", budget, s.cfg.MaxJobSteps)
		}
	}
	return nil
}

// handleSubmit is POST /v1/jobs: one spec object, or an array of specs (a
// sweep). Sweeps are admitted all-or-nothing: if the queue cannot hold
// every cache-missing spec, nothing is enqueued and the whole submission
// gets the 429.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 8<<20)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	specs, sweep, err := scenario.ParseSubmission(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	adms := make([]admission, len(specs))
	for i, spec := range specs {
		if err := s.vetSpec(spec); err != nil {
			writeError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
		adms[i].spec = spec
		fp, err := spec.Fingerprint()
		if err == nil {
			_, err = hex.Decode(adms[i].fp[:], []byte(fp))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "spec %d: %v", i, err)
			return
		}
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	// Three admission buckets: cache hits cost nothing, submissions whose
	// fingerprint is already executing (or appears earlier in this very
	// submission) coalesce onto that execution via singleflight, and only
	// genuinely fresh specs need queue slots.
	var hits, deduped, misses int64
	fresh := make(map[fingerprint]bool)
	for i := range adms {
		adms[i].st, adms[i].hit = s.cache.lookup(adms[i].fp)
		switch {
		case adms[i].hit:
			hits++
		case s.inflight[adms[i].fp] != nil || fresh[adms[i].fp]:
			deduped++
		default:
			fresh[adms[i].fp] = true
			misses++
		}
	}
	if free := s.cfg.QueueDepth - len(s.queue); int64(free) < misses {
		retryAfter := s.retryAfterLocked(misses)
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		writeError(w, http.StatusTooManyRequests,
			"queue full: %d of %d slots free, submission needs %d", free, s.cfg.QueueDepth, misses)
		return
	}
	s.cache.record(hits, misses)
	s.dedups += deduped
	statuses := make([]JobStatus, len(adms))
	for i, adm := range adms {
		statuses[i] = s.admitLocked(adm)
	}
	s.evictJobsLocked()
	s.mu.Unlock()

	if sweep {
		writeJSON(w, http.StatusAccepted, struct {
			Jobs []JobStatus `json:"jobs"`
		}{statuses})
		return
	}
	writeJSON(w, http.StatusAccepted, statuses[0])
}

// admitLocked registers one admitted spec as a job (caller holds s.mu and
// has reserved queue capacity for fresh misses). A cache hit is a retired
// record from the start. A spec whose fingerprint is already executing
// attaches to that job instead of enqueuing — the singleflight guarantee
// that identical concurrent submissions run the engine exactly once.
func (s *Server) admitLocked(adm admission) JobStatus {
	s.nextID++
	now := time.Now().UnixNano()
	r := &record{seq: s.nextID, name: adm.spec.Name, fingerprint: adm.fp, state: StateQueued, created: now}
	s.jobs = append(s.jobs, r)
	switch primary := s.inflight[adm.fp]; {
	case adm.hit:
		r.state, r.cacheHit, r.stats, r.hasStats = StateDone, true, adm.st, true
		r.started, r.finished = now, now
	case primary != nil:
		// Read the primary's events, so followers of either job see the
		// same bytes; retire retires this job with the primary's outcome.
		r.deduped, r.src = true, primary.record
		r.live = &job{record: r, srv: s, cancel: func() {}, done: make(chan struct{})}
		primary.attached = append(primary.attached, r.live)
	default:
		j := &job{record: r, srv: s, spec: adm.spec, stream: newStream(s.cfg.EventBuffer), done: make(chan struct{})}
		j.ctx, j.cancel = context.WithCancel(s.jobsCtx)
		r.live = j
		s.inflight[adm.fp] = j
		s.active++
		s.queue <- j // capacity reserved under s.mu; never blocks
	}
	return r.statusLocked()
}

// evictJobsLocked trims the registry to RetainJobs by dropping the oldest
// retired jobs; queued and running jobs are never evicted. It scans from
// the head and stops once the registry is back at the cap, so it costs
// the jobs it evicts and the live jobs it passes over, which keep their
// place and order, not the size of the registry.
func (s *Server) evictJobsLocked() {
	over, kept, i := len(s.jobs)-s.cfg.RetainJobs, 0, 0
	for ; over > 0 && i < len(s.jobs); i++ {
		if r := s.jobs[i]; r.live != nil {
			s.jobs[kept], kept = r, kept+1
		} else {
			r.evicted = true
			s.sealed.RetainedBytes -= int64(r.log.Retained())
			s.sealed.RawBytes -= int64(r.log.Len())
			over--
		}
	}
	copy(s.jobs[i-kept:i], s.jobs[:kept])
	clear(s.jobs[:i-kept])
	s.jobs = s.jobs[i-kept:]
}

// handleList is GET /v1/jobs: every retained job in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.jobs))
	for _, rec := range s.jobs {
		statuses = append(statuses, rec.statusLocked())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{statuses})
}

// handleGet is GET /v1/jobs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	rec, _ := s.lookup(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(rec))
}

// handleDelete is DELETE /v1/jobs/{id}: cancel. A queued job retires
// immediately; a running job's context is canceled and it retires with
// partial stats via the Runner's *sim.CanceledError. Terminal jobs are a
// 409 — there is nothing left to cancel.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	rec, j := s.lookup(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if j == nil || !j.cancelRequest() {
		writeJSON(w, http.StatusConflict, s.status(rec))
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(rec))
}

// handleEvents is GET /v1/jobs/{id}/events: an NDJSON replay-then-follow
// stream of the job's metrics records in the docs/OBSERVABILITY.md wire
// format: the bytes a -metrics-out file of the same spec holds, up to the
// event bound. The response ends when the job retires; cache-hit jobs
// stream nothing (no simulation ran).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ev := s.eventsOf(r.PathValue("id"))
	if ev == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	stop := context.AfterFunc(r.Context(), ev.wake)
	defer stop()
	// Each wake-up writes every byte the log has gained and flushes once.
	for off := 0; ; {
		chunk, ok := ev.next(r.Context(), off)
		if !ok {
			return
		}
		if _, err := w.Write(chunk); err != nil {
			return
		}
		off += len(chunk)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// eventsOf returns a job's events, or nil for an unknown id.
func (s *Server) eventsOf(id string) events {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.findLocked(id); r != nil {
		return r.eventsLocked()
	}
	return nil
}

// healthBody is the JSON shape of GET /healthz.
type healthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// handleHealthz is GET /healthz: 200 "ok" while accepting work, 503
// "draining" once Shutdown has begun.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	body := healthBody{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	code := http.StatusOK
	if draining {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// Metrics is the JSON shape of GET /metrics: jobs by state, queue
// occupancy, cache effectiveness and aggregate engine throughput (fed by
// the shared obs.Counters sink).
type Metrics struct {
	UptimeSeconds float64       `json:"uptime_seconds"`
	Draining      bool          `json:"draining"`
	Jobs          map[State]int `json:"jobs"`
	QueueDepth    int           `json:"queue_depth"`
	QueueCapacity int           `json:"queue_capacity"`
	Cache         CacheMetrics  `json:"cache"`
	Engine        EngineMetrics `json:"engine"`
	Events        EventMetrics  `json:"events"`
	Fleet         *FleetMetrics `json:"fleet,omitempty"`
}

// CacheMetrics describes the result cache and singleflight coalescing.
type CacheMetrics struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	Entries  int     `json:"entries"`
	// Deduped counts submissions that attached to an already-executing
	// identical spec instead of running their own simulation.
	Deduped int64 `json:"deduped"`
}

// EventMetrics describes the sealed event logs of the retained jobs. A
// log is counted once its job retires and the log is sealed, with the job
// that ran it, until that job is evicted.
type EventMetrics struct {
	// RetainedBytes is what the logs are held in, mostly packed line
	// against line (obs.Compress).
	RetainedBytes int64 `json:"retained_bytes"`
	// RawBytes is what GET /v1/jobs/{id}/events serves for them.
	RawBytes int64 `json:"raw_bytes"`
}

// FleetMetrics describes the coordinator's worker fleet (coordinator
// mode only).
type FleetMetrics struct {
	Alive   int                  `json:"alive"`
	Workers []fleet.WorkerStatus `json:"workers"`
	Totals  fleet.Totals         `json:"totals"`
}

// EngineMetrics aggregates simulation throughput across every job.
type EngineMetrics struct {
	StepsTotal       int64   `json:"steps_total"`
	MovesTotal       int64   `json:"moves_total"`
	DeliveredTotal   int64   `json:"delivered_total"`
	FaultEventsTotal int64   `json:"fault_events_total"`
	StepsPerSec      float64 `json:"steps_per_sec"`
	// Online-injection admission totals across every job (0 while only
	// static workloads have run): offers presented, admissions, refusals,
	// and the aggregate per-attempt refusal rate
	// refused/(admitted+refused).
	OfferedTotal  int64   `json:"offered_total"`
	AdmittedTotal int64   `json:"admitted_total"`
	RefusedTotal  int64   `json:"refused_total"`
	RefusalRate   float64 `json:"refusal_rate"`
	// Congestion/dilation efficiency across every analyzed job (0 while
	// only analysis-off jobs have run): the number of analyzed runs and
	// the aggregate makespan/(C+D) ratio, weighted by each run's C+D
	// (see docs/ANALYSIS.md).
	AnalyzedRuns int64   `json:"analyzed_runs"`
	CDRatio      float64 `json:"cd_ratio"`
}

// handleMetrics is GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start).Seconds()
	m := Metrics{
		UptimeSeconds: uptime,
		Jobs: map[State]int{
			StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
		},
		QueueCapacity: s.cfg.QueueDepth,
	}
	s.mu.Lock()
	m.Draining = s.draining
	m.QueueDepth = len(s.queue)
	deduped := s.dedups
	for _, r := range s.jobs {
		m.Jobs[r.stateLocked()]++
	}
	m.Events = s.sealed
	s.mu.Unlock()
	hits, misses, size := s.cache.stats()
	m.Cache = CacheMetrics{Hits: hits, Misses: misses, Entries: size, Deduped: deduped}
	if s.cfg.Fleet != nil {
		m.Fleet = &FleetMetrics{
			Alive:   s.cfg.Fleet.Alive(),
			Workers: s.cfg.Fleet.Workers(),
			Totals:  s.cfg.Fleet.Stats(),
		}
	}
	if lookups := hits + misses; lookups > 0 {
		m.Cache.HitRatio = float64(hits) / float64(lookups)
	}
	t := s.counters.Totals()
	m.Engine = EngineMetrics{
		StepsTotal:       t.Steps,
		MovesTotal:       t.Moves,
		DeliveredTotal:   t.Delivered,
		FaultEventsTotal: t.Events,
		OfferedTotal:     t.Offered,
		AdmittedTotal:    t.Admitted,
		RefusedTotal:     t.Refused,
		AnalyzedRuns:     t.Runs,
		CDRatio:          t.CDRatio(),
	}
	if uptime > 0 {
		m.Engine.StepsPerSec = float64(m.Engine.StepsTotal) / uptime
	}
	if attempts := m.Engine.AdmittedTotal + m.Engine.RefusedTotal; attempts > 0 {
		m.Engine.RefusalRate = float64(m.Engine.RefusedTotal) / float64(attempts)
	}
	writeJSON(w, http.StatusOK, m)
}
