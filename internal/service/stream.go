package service

import (
	"context"
	"sync"
	"sync/atomic"

	"meshroute/internal/obs"
)

// stream is one job's NDJSON event log (the docs/OBSERVABILITY.md wire
// format) shared between the running job, which appends records through
// the obs.Sink interface, and any number of HTTP followers, which replay
// the log from the start and then block for new bytes until the job
// retires. The log is bounded in records; once full, further records are
// counted as dropped instead of growing without limit. A retired job's
// log is sealed, and later packed: held flate-compressed.
type stream struct {
	mu   sync.Mutex
	cond *sync.Cond
	log  *obs.EventLog
	// sizes is the registry total the sealed log is counted in; nil once
	// the job is evicted, so a log sealed after that is not counted.
	sizes *eventSizes
}

// eventSizes totals the sealed event logs of the retained jobs: the bytes
// they are held in and the bytes they inflate to.
type eventSizes struct {
	retained, raw atomic.Int64
}

// add adds to the totals; a nil receiver counts nothing.
func (e *eventSizes) add(retained, raw int) {
	if e != nil {
		e.retained.Add(int64(retained))
		e.raw.Add(int64(raw))
	}
}

func newStream(limit int, sizes *eventSizes) *stream {
	s := &stream{log: obs.NewEventLog(limit), sizes: sizes}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// The sink methods append under the lock and wake the followers.

// Step implements obs.Sink.
func (s *stream) Step(x obs.StepSample) { s.mu.Lock(); s.log.Step(x); s.unlock() }

// Span implements obs.Sink.
func (s *stream) Span(sp obs.Span) { s.mu.Lock(); s.log.Span(sp); s.unlock() }

// Event implements obs.EventSink.
func (s *stream) Event(e obs.Event) { s.mu.Lock(); s.log.Event(e); s.unlock() }

// Run implements obs.RunSink.
func (s *stream) Run(r obs.RunSummary) { s.mu.Lock(); s.log.Run(r); s.unlock() }

// commit appends a block of lines a fleet worker encoded, verbatim (byte
// identity with a local run), with the drops of the worker's own bound.
func (s *stream) commit(block []byte, lines, dropped int) {
	s.mu.Lock()
	s.log.Commit(block, lines, dropped)
	s.unlock()
}

// close seals the log, so no more bytes will come, counts it, and wakes
// every follower, which ends on the raw bytes. Idempotent.
func (s *stream) close() {
	s.mu.Lock()
	if !s.log.Sealed() {
		s.log.Seal()
		s.sizes.add(s.log.Retained(), s.log.Len())
	}
	s.unlock()
}

// pack compresses a sealed log's lines outside the lock — they are final
// — and swaps the compressed form in under it. The worker that ran the job
// calls it once, after its next job (see Server.worker); a nil stream
// packs nothing.
func (s *stream) pack() {
	if s == nil {
		return
	}
	s.mu.Lock()
	raw, held, sealed := s.log.Bytes(), s.log.Retained(), s.log.Sealed()
	s.mu.Unlock()
	if !sealed || len(raw) == 0 {
		return
	}
	z := obs.Compress(raw)
	s.mu.Lock()
	s.log.Pack(z)
	s.sizes.add(s.log.Retained()-held, 0)
	s.mu.Unlock()
}

// evict takes the stream out of the registry's totals.
func (s *stream) evict() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Sealed() {
		s.sizes.add(-s.log.Retained(), -s.log.Len())
	}
	s.sizes = nil
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
// come. The bytes are never rewritten, so the caller reads them unlocked;
// once the log is compressed they are inflated afresh.
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
