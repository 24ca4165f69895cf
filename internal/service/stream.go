package service

import (
	"cmp"
	"context"
	"sync"

	"meshroute/internal/obs"
)

// stream is one job's NDJSON event log (the docs/OBSERVABILITY.md wire
// format) shared between the running job, which appends records through
// the obs.Sink interface, and any number of HTTP followers, which replay
// the log from the start and then block for new bytes until the job
// retires. The log is bounded in records; once full, further records are
// counted as dropped instead of growing without limit. When the job
// retires its log is sealed and handed to the job's record; followers
// that attached through the stream read on through it.
type stream struct {
	mu   sync.Mutex
	cond *sync.Cond
	log  *obs.EventLog
}

func newStream(limit int) *stream {
	s := &stream{log: obs.NewEventLog(limit)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Step, Span, Event and Run implement obs.Sink: each appends under the
// lock and wakes the followers.

func (s *stream) Step(x obs.StepSample) { s.mu.Lock(); s.log.Step(x); s.unlock() }
func (s *stream) Span(sp obs.Span)      { s.mu.Lock(); s.log.Span(sp); s.unlock() }
func (s *stream) Event(e obs.Event)     { s.mu.Lock(); s.log.Event(e); s.unlock() }
func (s *stream) Run(r obs.RunSummary)  { s.mu.Lock(); s.log.Run(r); s.unlock() }

// commit appends a block of lines a fleet worker encoded, verbatim (byte
// identity with a local run), with the drops of the worker's own bound.
func (s *stream) commit(block []byte, lines, dropped int) {
	s.mu.Lock()
	s.log.Commit(block, lines, dropped)
	s.unlock()
}

// close seals the log, so no more bytes will come, and wakes every
// follower, which ends on the raw bytes. Idempotent.
func (s *stream) close() {
	s.mu.Lock()
	s.log.Seal()
	s.unlock()
}

// wake prods blocked followers so they can notice a canceled request
// context (install with context.AfterFunc).
func (s *stream) wake() { s.mu.Lock(); s.unlock() }

// unlock wakes every follower and releases the lock.
func (s *stream) unlock() {
	s.cond.Broadcast()
	s.mu.Unlock()
}

// counts returns the buffered and dropped record counts.
func (s *stream) counts() (buffered, dropped int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Lines(), s.log.Dropped()
}

// next returns every byte of the log from offset off on, blocking until
// there is at least one, the stream closes, or ctx is canceled (callers
// must arrange a wake on cancellation). ok=false means no more bytes will
// come. The bytes are never rewritten, so the caller reads them unlocked.
func (s *stream) next(ctx context.Context, off int) (chunk []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for off >= s.log.Len() && !s.log.Sealed() && ctx.Err() == nil {
		s.cond.Wait()
	}
	if off < s.log.Len() {
		return s.log.From(off), true
	}
	return nil, false
}

// events is where a job's event lines are read: the stream of the job that
// writes them while it runs, then its sealed log.
type events interface {
	next(ctx context.Context, off int) (chunk []byte, ok bool)
	wake()
}

// eventsLocked returns the record's events, which for a deduped job are
// its primary's. The caller holds the server's mu.
func (r *record) eventsLocked() events {
	src := cmp.Or(r.src, r)
	if src.live != nil {
		return src.live.stream
	}
	return sealed{src.log}
}

// sealed is a retired job's event log as it was when read from the
// record: its lines are never rewritten, so it is read without a lock.
type sealed struct{ log obs.EventLog }

func (l sealed) next(_ context.Context, off int) ([]byte, bool) {
	if off >= l.log.Len() {
		return nil, false
	}
	return l.log.From(off), true
}

func (sealed) wake() {}
