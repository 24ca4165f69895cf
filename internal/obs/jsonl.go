package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Line type discriminators of the metrics JSONL stream: every line is a
// JSON object whose "t" field is one of these (see docs/OBSERVABILITY.md).
const (
	// LineStep marks a StepSample line.
	LineStep = "step"
	// LineSpan marks a Span line.
	LineSpan = "span"
	// LineFault marks an Event line (fault/watchdog events, see
	// docs/ROBUSTNESS.md).
	LineFault = "fault"
	// LineRun marks a RunSummary line (the terminal C/D efficiency record
	// of an analyzed run, see docs/ANALYSIS.md).
	LineRun = "run"
)

// spanLine, faultLine and runLine wrap the payload types with the
// discriminator; struct embedding flattens the payload fields into the same
// JSON object. (Step lines have the same shape; AppendStepLine writes them.)
type spanLine struct {
	T string `json:"t"`
	Span
}

type faultLine struct {
	T string `json:"t"`
	Event
}

type runLine struct {
	T string `json:"t"`
	RunSummary
}

// AppendStepLine appends one step sample to dst as a metrics-JSONL line
// (with trailing newline) and returns the extended buffer. The step line is
// the one record emitted per engine step, and it is all integers, so it is
// written by hand; the result is byte for byte what encoding/json produces
// for the same wrapping of a StepSample (FuzzStepLineMatchesEncodingJSON), including the four
// omitempty admission fields. Span, fault and run lines are rare and carry
// strings and a float: they stay on encoding/json.
func AppendStepLine(dst []byte, s StepSample) []byte {
	dst = append(dst, `{"t":"step","s":`...)
	dst = strconv.AppendInt(dst, int64(s.Step), 10)
	dst = appendIntField(dst, `,"mv":`, s.Moves)
	dst = appendIntsField(dst, `,"lu":[`, s.LinkUse[:])
	dst = appendIntField(dst, `,"dv":`, s.Delivered)
	dst = appendIntField(dst, `,"dt":`, s.DeliveredTotal)
	dst = appendIntField(dst, `,"if":`, s.InFlight)
	dst = appendIntField(dst, `,"on":`, s.OccupiedNodes)
	dst = appendIntField(dst, `,"mq":`, s.MaxQueue)
	dst = appendIntsField(dst, `,"qh":[`, s.QueueHist[:])
	if s.Offered != 0 {
		dst = appendIntField(dst, `,"of":`, s.Offered)
	}
	if s.Admitted != 0 {
		dst = appendIntField(dst, `,"ad":`, s.Admitted)
	}
	if s.Refused != 0 {
		dst = appendIntField(dst, `,"rf":`, s.Refused)
	}
	if s.Backlog != 0 {
		dst = appendIntField(dst, `,"bl":`, s.Backlog)
	}
	return append(dst, '}', '\n')
}

func appendIntField(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendIntsField appends key (which opens the array), vs comma-separated,
// and the closing bracket.
func appendIntsField(dst []byte, key string, vs []int) []byte {
	dst = append(dst, key...)
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// JSONL is a Sink that streams records to a writer as JSON lines: the
// lines of a private, unbounded EventLog, so a file holds exactly the
// bytes an event log of the same records holds. It writes them out once
// they reach jsonlChunk bytes, and the rest at Close, which surfaces the
// first write error; after an error the sink drops further records, so a
// run never fails mid-flight because its metrics file did.
type JSONL struct {
	w            io.Writer
	log          EventLog
	err          error
	steps, spans int
}

// jsonlChunk is the least a JSONL sink writes at once before Close: with
// step lines of 110–140 bytes and 20–30 µs per write call to a metrics
// file, 4 KiB writes were more than half of the sink's cost per step.
const jsonlChunk = 32 << 10

// NewJSONL creates a JSONL sink writing to w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{w: w, log: EventLog{limit: math.MaxInt}} }

// Step writes one step line.
func (j *JSONL) Step(s StepSample) { j.steps++; j.log.Step(s); j.write(jsonlChunk) }

// Span writes one span line.
func (j *JSONL) Span(sp Span) { j.spans++; j.log.Span(sp); j.write(jsonlChunk) }

// Event writes one fault line.
func (j *JSONL) Event(e Event) { j.log.Event(e); j.write(jsonlChunk) }

// Run writes one run-summary line.
func (j *JSONL) Run(r RunSummary) { j.log.Run(r); j.write(jsonlChunk) }

// write writes the buffered lines out, and empties the buffer, once they
// reach least bytes (and are not empty). A failed write seals the log, so
// it refuses every later record.
func (j *JSONL) write(least int) {
	if b := j.log.buf; len(b) >= max(least, 1) {
		if _, err := j.w.Write(b); err != nil {
			j.err = err
			j.log.Seal()
		}
		j.log.buf = b[:0]
	}
}

// StepCount returns the number of step lines taken: all of them written
// once Close returns nil.
func (j *JSONL) StepCount() int { return j.steps }

// SpanCount returns the number of span lines taken, likewise.
func (j *JSONL) SpanCount() int { return j.spans }

// Close writes the buffered lines out and returns the first write error,
// if any.
func (j *JSONL) Close() error { j.write(1); return j.err }

// ReadJSONLRecords parses a metrics JSONL stream back into its records
// (the inverse of the JSONL sink, for tests and offline analysis). Lines
// with an unknown "t" are an error: the schema is versioned by its line
// types.
func ReadJSONLRecords(r io.Reader) (Records, error) {
	dec := json.NewDecoder(r)
	var rec Records
	for dec.More() {
		var raw struct {
			T string `json:"t"`
		}
		// Decode twice: once for the discriminator, once for the payload.
		var payload json.RawMessage
		if err := dec.Decode(&payload); err != nil {
			return Records{}, fmt.Errorf("obs: %w", err)
		}
		if err := json.Unmarshal(payload, &raw); err != nil {
			return Records{}, fmt.Errorf("obs: %w", err)
		}
		switch raw.T {
		case LineStep:
			var s StepSample
			if err := json.Unmarshal(payload, &s); err != nil {
				return Records{}, fmt.Errorf("obs: step line: %w", err)
			}
			rec.Step(s)
		case LineSpan:
			var sp Span
			if err := json.Unmarshal(payload, &sp); err != nil {
				return Records{}, fmt.Errorf("obs: span line: %w", err)
			}
			rec.Span(sp)
		case LineFault:
			var e Event
			if err := json.Unmarshal(payload, &e); err != nil {
				return Records{}, fmt.Errorf("obs: fault line: %w", err)
			}
			rec.Event(e)
		case LineRun:
			var ru RunSummary
			if err := json.Unmarshal(payload, &ru); err != nil {
				return Records{}, fmt.Errorf("obs: run line: %w", err)
			}
			rec.Run(ru)
		default:
			return Records{}, fmt.Errorf("obs: unknown line type %q", raw.T)
		}
	}
	return rec, nil
}
