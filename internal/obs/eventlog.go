package obs

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"io"
	"sync"
)

// EventLog is a bounded metrics-JSONL stream held in memory as one
// contiguous byte slice: the NDJSON event log of one service job or fleet
// cell. It implements Sink, and its lines are the bytes the JSONL sink
// writes for the same records (JSONL writes out a private, unbounded
// log's), up to its limit; every record past the limit is counted in
// Dropped instead. Step lines are encoded in place, so a log with room
// allocates nothing per step.
//
// A finished log is sealed: it refuses every later record, counting it as
// dropped, and is packed, keeping its bytes flate-compressed (see Seal and
// Pack). Readers see the same bytes either way.
//
// An EventLog is not safe for concurrent use; the service's per-job
// stream guards its log with the mutex its followers wait on.
type EventLog struct {
	buf     []byte // the lines, flate-compressed once packed
	size    int    // the length of the lines once packed, else 0
	lines   int
	dropped int
	limit   int
	sealed  bool
}

// NewEventLog creates an empty log that keeps at most limit records.
func NewEventLog(limit int) *EventLog { return &EventLog{limit: limit} }

// Len returns the length of the log's lines, compressed or not.
func (l *EventLog) Len() int {
	if l.size > 0 {
		return l.size
	}
	return len(l.buf)
}

// Retained returns the bytes the log holds its lines in: the raw
// buffer's capacity, or the compressed length once packed.
func (l *EventLog) Retained() int {
	if l.size > 0 {
		return len(l.buf)
	}
	return cap(l.buf)
}

// Bytes returns the log's lines, each newline-terminated: From(0).
func (l *EventLog) Bytes() []byte { return l.From(0) }

// From returns the log's lines from byte off on. While the log is raw
// that is a slice of its buffer, which later appends and sealing never
// rewrite, so it stays valid; once packed it is a fresh copy inflated
// from the compressed lines.
func (l *EventLog) From(off int) []byte {
	if l.size > 0 {
		return inflate(l.buf, off, l.size)
	}
	return l.buf[off:len(l.buf):len(l.buf)]
}

// Lines returns the number of records kept.
func (l *EventLog) Lines() int { return l.lines }

// Dropped returns the number of records discarded past the limit or
// after the log was sealed.
func (l *EventLog) Dropped() int { return l.dropped }

// Sealed reports whether the log refuses records.
func (l *EventLog) Sealed() bool { return l.sealed }

// room reports whether the log can take one more record, counting the
// record as dropped if not.
func (l *EventLog) room() bool {
	ok := !l.sealed && l.lines < l.limit
	if !ok {
		l.dropped++
	}
	return ok
}

// Step appends one step line.
func (l *EventLog) Step(s StepSample) {
	if l.room() {
		l.buf = AppendStepLine(l.buf, s)
		l.lines++
	}
}

// Span appends one span line.
func (l *EventLog) Span(sp Span) { l.appendJSON(spanLine{T: LineSpan, Span: sp}) }

// Event appends one fault line.
func (l *EventLog) Event(e Event) { l.appendJSON(faultLine{T: LineFault, Event: e}) }

// Run appends one run-summary line.
func (l *EventLog) Run(r RunSummary) { l.appendJSON(runLine{T: LineRun, RunSummary: r}) }

// appendJSON appends a rare record through encoding/json. A record that
// does not encode (a non-finite cd_ratio) is left out, never fatal to the
// run, and not counted as dropped.
func (l *EventLog) appendJSON(v any) {
	if data, err := json.Marshal(v); err == nil && l.room() {
		l.buf = append(append(l.buf, data...), '\n')
		l.lines++
	}
}

// Commit appends block, lines newline-terminated records another log
// already encoded (a fleet worker's), in one copy, and adds dropped —
// the records the other log discarded — to Dropped. Records past this
// log's own limit, or every record once it is sealed, are cut off the
// block's tail and counted as dropped.
func (l *EventLog) Commit(block []byte, lines, dropped int) {
	keep := l.limit - l.lines
	if l.sealed {
		keep = 0
	}
	if lines > keep {
		keep = max(keep, 0)
		cut := 0
		for range keep {
			cut += bytes.IndexByte(block[cut:], '\n') + 1
		}
		block, dropped, lines = block[:cut], dropped+lines-keep, keep
	}
	if l.buf == nil {
		l.buf = make([]byte, 0, len(block))
	}
	l.buf = append(l.buf, block...)
	l.lines += lines
	l.dropped += dropped
}

// Seal ends the log: it refuses every later record, counting it as
// dropped, so its lines are final. Pack(Compress(l.Bytes())) then keeps
// them flate-compressed; the split lets a caller whose readers hold a lock
// seal and pack under it and compress, the slow part, outside.
// Idempotent.
func (l *EventLog) Seal() { l.sealed = true }

// Pack swaps in z, Compress's result for the sealed log's lines, and
// releases the raw buffer; a nil z (flate did not shrink them) keeps the
// lines raw, copied to a buffer of exactly their length. Lines, Dropped
// and what From returns do not change, and slices From returned before
// stay valid: the old buffer is never rewritten. Pack does nothing to a
// log that is open or already packed.
func (l *EventLog) Pack(z []byte) {
	switch {
	case !l.sealed || l.size > 0:
	case z != nil:
		l.buf, l.size = z, len(l.buf)
	case cap(l.buf) > len(l.buf):
		l.buf = append(make([]byte, 0, len(l.buf)), l.buf...)
	}
}

// deflater is a pooled flate writer at BestSpeed with the buffer it
// compresses into.
type deflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

var (
	deflaters = sync.Pool{New: func() any {
		d := new(deflater)
		d.w, _ = flate.NewWriter(&d.out, flate.BestSpeed) // BestSpeed is a valid level
		return d
	}}
	inflaters sync.Pool // of flate readers, io.ReadCloser and flate.Resetter
)

// Compress returns raw flate-compressed at BestSpeed, at exact length, or
// nil if that is not shorter than raw.
func Compress(raw []byte) []byte {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.out.Reset()
	d.w.Reset(&d.out)
	d.w.Write(raw) //nolint:errcheck // writes into a bytes.Buffer cannot fail
	d.w.Close()    //nolint:errcheck // likewise
	if d.out.Len() >= len(raw) {
		return nil
	}
	return bytes.Clone(d.out.Bytes())
}

// inflate returns bytes off through size of the size bytes z compresses.
func inflate(z []byte, off, size int) []byte {
	src := bytes.NewReader(z)
	r, _ := inflaters.Get().(io.ReadCloser)
	var err error
	if r == nil {
		r = flate.NewReader(src)
	} else {
		err = r.(flate.Resetter).Reset(src, nil)
	}
	defer inflaters.Put(r)
	out := make([]byte, size-off)
	if err == nil {
		_, err = io.CopyN(io.Discard, r, int64(off))
	}
	if err == nil {
		_, err = io.ReadFull(r, out)
	}
	if err != nil {
		panic("obs: a packed event log does not inflate: " + err.Error())
	}
	return out
}
