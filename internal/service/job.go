package service

import (
	"context"
	"sync"
	"time"

	"meshroute"
	"meshroute/internal/scenario"
)

// State is a job's lifecycle position. Jobs move
// queued → running → {done, failed, canceled}; cache hits and
// cancellations of queued jobs jump straight from queued to a terminal
// state.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Stats is a run's routing statistics on the wire: meshroute.RouteStats,
// the one stats type of the facade, the service API and the fleet cell
// protocol.
type Stats = meshroute.RouteStats

// JobStatus is the JSON shape of one job in API responses
// (POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id}).
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// Name is the submitted spec's label, if any.
	Name string `json:"name,omitempty"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Fingerprint is the spec's canonical content hash (the cache key).
	Fingerprint string `json:"fingerprint"`
	// CacheHit reports whether the result was served from the cache
	// without simulating.
	CacheHit bool `json:"cache_hit"`
	// Deduped reports singleflight coalescing: an identical spec was
	// already in flight at submission, so this job attached to that
	// execution instead of running its own.
	Deduped bool `json:"deduped,omitempty"`
	// Stats is the run's statistics: final for done jobs, partial for
	// failed/canceled jobs that had started, absent otherwise.
	Stats *Stats `json:"stats,omitempty"`
	// Error describes the abort of a failed or canceled job.
	Error string `json:"error,omitempty"`
	// Diagnostics is the engine's state snapshot at abort time.
	Diagnostics string `json:"diagnostics,omitempty"`
	// Events is the number of NDJSON records buffered for
	// GET /v1/jobs/{id}/events (0 for cache hits, which skip simulation).
	Events int `json:"events"`
	// EventsDropped counts records discarded once the per-job event
	// buffer filled up.
	EventsDropped int `json:"events_dropped,omitempty"`
	// Created, Started and Finished are RFC 3339 lifecycle timestamps.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// job is the server-side record of one submitted spec. State transitions
// go through start/finish under mu; finish fires onDone exactly once, which
// is how the server's active-job accounting stays balanced no matter which
// of the worker, the cancel handler, or the drain path retires the job.
type job struct {
	id          string
	spec        *scenario.Spec
	fingerprint string

	ctx    context.Context
	cancel context.CancelFunc
	stream *stream
	// sharedStream marks stream as borrowed from a singleflight primary:
	// retiring this job must not close it (the primary owns it).
	sharedStream bool
	onDone       func()

	// attached are deduped jobs coalesced onto this execution; they are
	// retired with this job's outcome when it finishes. Guarded by the
	// server's mu, not the job's.
	attached []*job

	mu          sync.Mutex
	state       State
	cacheHit    bool
	deduped     bool
	stats       *Stats
	errMsg      string
	diagnostics string
	created     time.Time
	started     time.Time
	finished    time.Time
	done        chan struct{}
}

// start moves the job from queued to running. It returns false if the job
// was already retired (canceled while waiting in the queue).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	return true
}

// finish retires the job. Only the first call wins; later calls are
// no-ops, so racing finishers (worker vs. DELETE vs. drain) are safe.
func (j *job) finish(state State, stats *Stats, errMsg, diagnostics string) {
	j.mu.Lock()
	won := j.finishLocked(state, stats, errMsg, diagnostics)
	j.mu.Unlock()
	if won {
		j.afterFinish()
	}
}

// finishLocked records the terminal state under j.mu; it reports whether
// this call won the transition.
func (j *job) finishLocked(state State, stats *Stats, errMsg, diagnostics string) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.stats = stats
	j.errMsg = errMsg
	j.diagnostics = diagnostics
	j.finished = time.Now()
	close(j.done)
	return true
}

// afterFinish runs the transition's side effects outside j.mu: close the
// event stream (unless it belongs to a singleflight primary), release the
// context, and balance the server's active-job accounting.
func (j *job) afterFinish() {
	if !j.sharedStream {
		j.stream.close()
	}
	j.cancel() // release the context even on natural completion
	if j.onDone != nil {
		j.onDone()
	}
}

// cancelRequest implements DELETE: a still-queued job retires on the
// spot; a running one gets its context canceled and retires through the
// Runner's *sim.CanceledError path, keeping its partial stats.
func (j *job) cancelRequest() {
	j.mu.Lock()
	won := false
	if j.state == StateQueued {
		won = j.finishLocked(StateCanceled, nil, "canceled before the job started", "")
	}
	j.mu.Unlock()
	j.cancel()
	if won {
		j.afterFinish()
	}
}

// status snapshots the job for an API response.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		State:       j.state,
		Fingerprint: j.fingerprint,
		CacheHit:    j.cacheHit,
		Deduped:     j.deduped,
		Stats:       j.stats,
		Error:       j.errMsg,
		Diagnostics: j.diagnostics,
		Created:     j.created,
	}
	st.Events, st.EventsDropped = j.stream.counts()
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// currentState returns the state under the job lock.
func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
