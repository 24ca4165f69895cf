// Package fleet distributes sweep execution across worker processes: a
// Coordinator shards scenario cells over HTTP onto registered Workers,
// tracks worker health through heartbeats, retries failed dispatches with
// exponential backoff and jitter behind a per-worker circuit breaker, and
// re-dispatches cells owned by dead or straggling workers. Cells are
// deterministic by construction — scenario.Spec.Fingerprint is
// content-addressed and the engine is bit-reproducible — so replaying a
// cell on another worker is always safe and the merged result is
// byte-identical to a local run no matter which worker executed which
// cell or how many retries occurred.
//
// The degradation contract lifts internal/fault's engine-level promise to
// the fleet layer: every failure mode — dropped connections, delayed or
// truncated responses, 5xx workers, workers killed mid-cell — ends either
// in a completed, correct cell or in a typed error (*CellError,
// ErrNoWorkers) the caller can act on; run-level aborts inside a cell
// (livelock, invariant violation) are authoritative worker answers and
// propagate with their partial statistics instead of being retried.
//
// The wire protocol is one endpoint per side. A worker serves
// POST /v1/cells: the request body is a scenario spec, the response is
// NDJSON — the cell's metrics-JSONL event lines verbatim (the
// docs/OBSERVABILITY.md format), terminated by a single "t":"cell" result
// line carrying the run's statistics and its obs.Counters totals. The
// coordinator serves registration (wired through internal/service as
// POST /v1/workers): a worker announces its base URL and re-announces it
// every heartbeat interval; a worker whose heartbeat goes quiet is excluded
// from dispatch until it reappears.
//
// See docs/SERVICE.md for the fleet API and docs/ROBUSTNESS.md for the
// failure-mode matrix.
package fleet

import (
	"errors"
	"fmt"

	"meshroute"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// ErrNoWorkers reports that no live worker is registered. Callers that
// can execute locally (internal/service) treat it as the signal to
// degrade gracefully to in-process execution.
var ErrNoWorkers = errors.New("fleet: no live workers")

// Stats is a run's routing statistics on the wire. It is
// meshroute.RouteStats, whose JSON names are the protocol's.
type Stats = meshroute.RouteStats

// ToStats returns st unchanged: Stats and meshroute.RouteStats are one
// type.
func ToStats(st meshroute.RouteStats) Stats { return st }

// cellLine is the terminal NDJSON record of a POST /v1/cells response:
// the run's scenario.Outcome plus what the coordinator needs to commit
// the event lines before it. Its "t" discriminator is distinct from the
// obs line types, so a response body splits unambiguously into verbatim
// event lines and one result. Totals is what the cell's records add to an
// obs.Counters — the worker counted them as the run produced them, so the
// coordinator never parses the event lines it forwards. A worker always
// sends it (a pointer only so that a line without one can be told from a
// cell that counted nothing, and refused).
type cellLine struct {
	T string `json:"t"` // always lineCell
	scenario.Outcome
	Totals        *obs.Totals `json:"totals"`
	EventsDropped int         `json:"events_dropped,omitempty"`
}

// lineCell is the cellLine discriminator value.
const lineCell = "cell"

// CellResult is one cell's outcome as merged by the coordinator. A
// non-empty Error is a run-level abort reported by the worker (livelock,
// invariant violation, cancellation): deterministic, so never retried,
// with Stats holding the partial numbers — the same contract
// internal/service exposes for local runs.
type CellResult struct {
	scenario.Outcome
	// Events holds the cell's metrics-JSONL lines exactly as a local run
	// would have produced them (newline-terminated, in order), as one block.
	Events []byte
	// EventLines is the number of lines in Events.
	EventLines int
	// Totals is what the cell's records — every one the run produced,
	// including any the worker's buffer dropped — add to an obs.Counters.
	Totals obs.Totals
	// EventsDropped counts lines the worker discarded past its buffer.
	EventsDropped int
	// Worker is the base URL of the worker that produced the result.
	Worker string
	// Attempts is the number of dispatch attempts the cell consumed.
	Attempts int
}

// CellError is the typed terminal failure of a cell dispatch: the fleet
// exhausted its retry budget (or hit a permanent refusal) without any
// worker completing the cell. Err preserves the last attempt's cause.
type CellError struct {
	// Fingerprint identifies the cell.
	Fingerprint string
	// Attempts is the number of dispatch attempts consumed.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	return fmt.Sprintf("fleet: cell %.12s failed after %d attempts: %v", e.Fingerprint, e.Attempts, e.Err)
}

// Unwrap exposes the last attempt's cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// permanentError marks an attempt failure that must not be retried (the
// worker rejected the spec itself, e.g. 400).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }
