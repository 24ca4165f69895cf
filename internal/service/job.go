package service

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"meshroute/internal/obs"
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

// Stats is a run's routing statistics on the wire: scenario.RouteStats,
// the one stats type of the facade, the service API and the fleet cell
// protocol.
type Stats = scenario.RouteStats

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

// record is one job as the registry keeps it: what GET /v1/jobs[/{id}],
// /events and /metrics read. While the job is queued or runs, live is the
// job itself and its outcome fields change under the job's mu; when it
// retires, Server.retire swaps the record in for it, and the job (spec,
// context, stream) is let go. From then on the record is immutable but
// for its log, which Server.pack compresses in place under the server's
// mu. A cache hit is a retired record from the start.
type record struct {
	seq                 int // the job's id is j-%06d of it
	name                string
	fingerprint         fingerprint
	cacheHit, deduped   bool
	hasStats, evicted   bool
	state               State
	stats               Stats
	errMsg, diagnostics string
	// created, started and finished are Unix nanoseconds; 0 until set.
	created, started, finished int64

	// live, src, log and evicted are guarded by the server's mu. src is a
	// deduped job's primary, whose events it serves; log is the sealed
	// event log, a copy of the stream's that shares its lines.
	live *job
	src  *record
	log  obs.EventLog
}

func (r *record) id() string { return fmt.Sprintf("j-%06d", r.seq) }

// fingerprint is a spec's content hash (the cache key): the SHA-256 that
// scenario.Spec.Fingerprint spells in hex.
type fingerprint [sha256.Size]byte

func (f fingerprint) String() string { return hex.EncodeToString(f[:]) }

// job is a record's live part, from admission to retirement: what running
// it and following it need. State transitions go through start/finish
// under mu; the first finish retires the job (Server.retire), which is how
// the server's active-job accounting stays balanced no matter which of the
// worker, the cancel handler, or the drain path retires it.
type job struct {
	*record
	srv    *Server
	spec   *scenario.Spec
	ctx    context.Context
	cancel context.CancelFunc
	// stream is the job's event log; nil for a deduped job, which reads
	// its primary's.
	stream *stream

	// attached are deduped jobs coalesced onto this execution; they are
	// retired with this job's outcome when it finishes. Guarded by the
	// server's mu, not the job's.
	attached []*job

	mu   sync.Mutex
	done chan struct{} // closed once retired
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
	j.started = time.Now().UnixNano()
	return true
}

// finish retires the job. Only the first call wins; later calls are
// no-ops, so racing finishers (worker vs. DELETE vs. drain) are safe.
func (j *job) finish(state State, stats *Stats, errMsg, diagnostics string) {
	j.mu.Lock()
	won := j.finishLocked(state, stats, errMsg, diagnostics)
	j.mu.Unlock()
	if won {
		j.srv.retire(j)
	}
}

// finishLocked records the terminal state under j.mu; it reports whether
// this call won the transition.
func (j *job) finishLocked(state State, stats *Stats, errMsg, diagnostics string) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	if stats != nil {
		j.stats, j.hasStats = *stats, true
	}
	j.errMsg = errMsg
	j.diagnostics = diagnostics
	j.finished = time.Now().UnixNano()
	return true
}

// cancelRequest implements DELETE: a still-queued job retires on the
// spot; a running one gets its context canceled and retires through the
// Runner's *sim.CanceledError path, keeping its partial stats. It reports
// false, doing nothing, if the job is already terminal.
func (j *job) cancelRequest() bool {
	j.mu.Lock()
	state := j.state
	won := state == StateQueued && j.finishLocked(StateCanceled, nil, "canceled before the job started", "")
	j.mu.Unlock()
	if state.Terminal() {
		return false
	}
	j.cancel()
	if won {
		j.srv.retire(j)
	}
	return true
}

// stateLocked returns the job's state; the caller holds the server's mu.
func (r *record) stateLocked() State {
	if j := r.live; j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	return r.state
}

// statusLocked snapshots the record for an API response; the caller holds
// the server's mu.
func (r *record) statusLocked() JobStatus {
	if j := r.live; j != nil {
		j.mu.Lock()
		defer j.mu.Unlock()
	}
	st := JobStatus{
		ID:          r.id(),
		Name:        r.name,
		State:       r.state,
		Fingerprint: r.fingerprint.String(),
		CacheHit:    r.cacheHit,
		Deduped:     r.deduped,
		Error:       r.errMsg,
		Diagnostics: r.diagnostics,
		Created:     time.Unix(0, r.created),
	}
	if r.hasStats {
		stats := r.stats
		st.Stats = &stats
	}
	if src := cmp.Or(r.src, r); src.live != nil {
		st.Events, st.EventsDropped = src.live.stream.counts()
	} else {
		st.Events, st.EventsDropped = src.log.Lines(), src.log.Dropped()
	}
	if r.started != 0 {
		t := time.Unix(0, r.started)
		st.Started = &t
	}
	if r.finished != 0 {
		t := time.Unix(0, r.finished)
		st.Finished = &t
	}
	return st
}
