package obs

import (
	"bytes"
	"encoding/json"
)

// EventLog is a bounded metrics-JSONL stream held in memory as one
// contiguous byte slice: the NDJSON event log of one service job or fleet
// cell. It implements Sink, EventSink and RunSink and writes exactly the
// bytes the JSONL sink would for the same records, up to its limit;
// every record past the limit is counted in Dropped instead. Step lines
// are encoded in place, so a log with room allocates nothing per step.
//
// An EventLog is not safe for concurrent use; the service's per-job
// stream guards its log with the mutex its followers wait on.
type EventLog struct {
	buf     []byte
	lines   int
	dropped int
	limit   int
}

// NewEventLog creates an empty log that keeps at most limit records.
func NewEventLog(limit int) *EventLog { return &EventLog{limit: limit} }

// Bytes returns the log's lines, each newline-terminated. Later appends
// never rewrite them, so the slice stays valid after the log grows.
func (l *EventLog) Bytes() []byte { return l.buf }

// Lines returns the number of records kept.
func (l *EventLog) Lines() int { return l.lines }

// Dropped returns the number of records discarded past the limit.
func (l *EventLog) Dropped() int { return l.dropped }

// room reports whether the log can take one more record, counting the
// record as dropped if not.
func (l *EventLog) room() bool {
	ok := l.lines < l.limit
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
// log's own limit are cut off the block's tail and counted as dropped.
func (l *EventLog) Commit(block []byte, lines, dropped int) {
	if keep := l.limit - l.lines; lines > keep {
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

// Trim gives the log's buffer up for one of exactly its length, so a log
// that is finished retains no spare capacity.
func (l *EventLog) Trim() {
	if cap(l.buf) > len(l.buf) {
		l.buf = append(make([]byte, 0, len(l.buf)), l.buf...)
	}
}
