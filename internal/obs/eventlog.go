package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strconv"
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
// dropped, and is packed, keeping its lines coded line against line (see
// Seal, Pack and Compress). Readers see the same bytes either way.
//
// An EventLog is not safe for concurrent use; the service's per-job
// stream guards its log with the mutex its followers wait on.
type EventLog struct {
	buf     []byte // the lines, or once packed their packed form
	size    int    // the length of the lines once packed, else 0
	lines   int
	dropped int
	limit   int
	sealed  bool
}

// NewEventLog creates an empty log that keeps at most limit records.
func NewEventLog(limit int) *EventLog { return &EventLog{limit: limit} }

// Len returns the length of the log's lines, packed or not.
func (l *EventLog) Len() int {
	if l.size > 0 {
		return l.size
	}
	return len(l.buf)
}

// Retained returns the bytes the log holds its lines in: the raw
// buffer's capacity, or the packed length once packed.
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
// rewrite, so it stays valid; once packed it is a fresh copy unpacked
// from the packed lines.
func (l *EventLog) From(off int) []byte {
	if l.size > 0 {
		return unpack(l.buf, off, l.size)
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
// them packed; the split lets a caller whose readers hold a lock seal and
// pack under it and compress, the slow part, outside.
// Idempotent.
func (l *EventLog) Seal() { l.sealed = true }

// Pack swaps in z, Compress's result for the sealed log's lines, and
// releases the raw buffer; a nil z (packing did not shrink them) keeps the
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

// A sealed log is packed line by line. A line is its bytes through its
// newline (the last one may lack it). Its digit runs are its numbers, and
// the rest of it, the non-digit bytes between them, is its shape. A line
// is encodable if no run is longer than maxRunDigits and none but a lone
// "0" starts with a zero, so that strconv.AppendInt rebuilds every run.
//
// The codec keeps shapeSlots slots, each holding the last encodable line
// of one shape: its numbers and, for each number, its last difference
// (zero after a literal). Step lines with and without the online keys,
// each fault kind and the run and span lines each take a slot, so a step
// line is coded against the last step line whatever came between. Each
// line is one record, whose first byte is its kind:
//
//   - lineRepeat+j: the line has slot j's shape, and each of its numbers
//     differs from the slot's by that number's last difference, as an idle
//     step line's do (the step count goes up by one, the rest stays);
//   - lineDelta+j: the line has slot j's shape; a bitmap, one bit per
//     number, marks the numbers whose difference is their last, and a
//     zigzag varint gives each other number's difference;
//   - lineShape+j: an encodable line of a shape no slot holds, as a
//     uvarint length and its bytes; it takes slot j, the least recently
//     used;
//   - lineLiteral: any other line, as a uvarint length and its bytes.
//
// A log's step lines differ from one to the next in their numbers only,
// and by little, so a step line packs to about a byte a changing number.
const shapeSlots = 8

const (
	lineLiteral byte = iota
	lineShape
	lineDelta  = lineShape + shapeSlots
	lineRepeat = lineDelta + shapeSlots
)

// maxRunDigits bounds an encodable digit run: 10¹⁸−1 and the difference
// of two such runs fit an int64.
const maxRunDigits = 18

// slotRuns is the digit runs of a line the codec keeps on the stack; a
// line with more spills to the heap. A step line has at most 23.
const slotRuns = 24

// digitRun is one number of a line: line[start:end], whose value is v and
// whose difference from the same number of its slot's line before was d.
type digitRun struct {
	start, end int
	v, d       int64
}

// shapeSlot is one slot: tmpl, a line of the slot's shape, and runs, the
// numbers of the slot's last line, at tmpl's positions.
type shapeSlot struct {
	tmpl []byte
	runs []digitRun
	used int // the number of the line that last used the slot
}

// scanRuns appends line's digit runs, with no difference, to runs and
// reports whether line is encodable.
func scanRuns(runs []digitRun, line []byte) ([]digitRun, bool) {
	for i := 0; i < len(line); i++ {
		if line[i]-'0' > 9 {
			continue
		}
		start, v := i, int64(0)
		for ; i < len(line) && line[i]-'0' <= 9; i++ {
			v = v*10 + int64(line[i]-'0')
		}
		if i-start > maxRunDigits || line[start] == '0' && i-start > 1 {
			return runs, false
		}
		runs = append(runs, digitRun{start: start, end: i, v: v})
	}
	return runs, true
}

// sameShape reports whether lines a and b, with digit runs ar and br, have
// equal non-digit bytes between their runs.
func sameShape(a []byte, ar []digitRun, b []byte, br []digitRun) bool {
	if len(ar) != len(br) {
		return false
	}
	at, bt := 0, 0
	for i := range ar {
		if !bytes.Equal(a[at:ar[i].start], b[bt:br[i].start]) {
			return false
		}
		at, bt = ar[i].end, br[i].end
	}
	return bytes.Equal(a[at:], b[bt:])
}

// findSlot returns the slot holding the shape of line, whose runs are
// runs, trying slot last first, or else the least recently used slot and
// false. An empty slot matches no line.
func findSlot(slots *[shapeSlots]shapeSlot, last int, line []byte, runs []digitRun) (int, bool) {
	if sameShape(slots[last].tmpl, slots[last].runs, line, runs) {
		return last, true
	}
	lru := 0
	for j := range slots {
		if j != last && sameShape(slots[j].tmpl, slots[j].runs, line, runs) {
			return j, true
		}
		if slots[j].used < slots[lru].used {
			lru = j
		}
	}
	return lru, false
}

// appendPacked appends raw's lines, packed, to z.
func appendPacked(z, raw []byte) []byte {
	var arena [shapeSlots + 1][slotRuns]digitRun
	var slots [shapeSlots]shapeSlot
	for j := range slots {
		slots[j].runs = arena[j][:0]
	}
	cur, last := arena[shapeSlots][:0], 0
	for ln := 1; len(raw) > 0; ln++ {
		n := bytes.IndexByte(raw, '\n') + 1
		if n == 0 {
			n = len(raw)
		}
		line := raw[:n]
		raw = raw[n:]
		var ok bool
		if cur, ok = scanRuns(cur[:0], line); !ok {
			z = append(binary.AppendUvarint(append(z, lineLiteral), uint64(n)), line...)
			continue
		}
		// The slots are indexed, not pointed to, so that the runs they
		// hold on the stack stay there.
		j, found := findSlot(&slots, last, line, cur)
		switch prev := slots[j].runs; {
		case !found:
			z = append(binary.AppendUvarint(append(z, lineShape+byte(j)), uint64(n)), line...)
		case repeats(cur, prev):
			z = append(z, lineRepeat+byte(j))
		default:
			z = append(z, lineDelta+byte(j))
			mask := len(z)
			for range (len(cur) + 7) / 8 {
				z = append(z, 0)
			}
			for i, r := range cur {
				if r.d == prev[i].d {
					z[mask+i/8] |= 1 << (i % 8)
				} else {
					z = binary.AppendVarint(z, r.d)
				}
			}
		}
		slots[j].tmpl, slots[j].runs, cur = line, cur, slots[j].runs
		slots[j].used, last = ln, j
	}
	return z
}

// repeats sets each of cur's differences from prev, the same numbers of
// the line before, and reports whether each is that number's last.
func repeats(cur, prev []digitRun) bool {
	same := true
	for i := range cur {
		cur[i].d = cur[i].v - prev[i].v
		same = same && cur[i].d == prev[i].d
	}
	return same
}

// Compress returns raw's lines packed, at exact length, or nil if that is
// not shorter than raw.
func Compress(raw []byte) []byte {
	var buf [4 << 10]byte
	if z := appendPacked(buf[:0], raw); len(z) < len(raw) {
		return bytes.Clone(z)
	}
	return nil
}

// unpack returns bytes off through size of the size bytes z packs. Lines
// before off are rebuilt in a scratch buffer, since the lines after them
// may be coded against them.
func unpack(z []byte, off, size int) []byte {
	var arena [shapeSlots][slotRuns]digitRun
	var slots [shapeSlots]shapeSlot
	for j := range slots {
		slots[j].runs = arena[j][:0]
	}
	var (
		line []byte // the scratch buffer
		pos  int    // the length of the lines rebuilt so far, while below off
	)
	out := make([]byte, 0, size-off)
	for len(z) > 0 {
		dst := out
		if pos < off {
			dst = line[:0]
		}
		kind := z[0]
		z = z[1:]
		if kind < lineDelta {
			n, k := binary.Uvarint(z)
			lit := z[k : k+int(n)]
			z = z[k+int(n):]
			dst = append(dst, lit...)
			if j := kind - lineShape; kind != lineLiteral {
				slots[j].tmpl = lit
				slots[j].runs, _ = scanRuns(slots[j].runs[:0], lit)
			}
		} else {
			j := (kind - lineDelta) % shapeSlots
			tmpl, runs := slots[j].tmpl, slots[j].runs
			var mask []byte
			if kind < lineRepeat {
				mask, z = z[:(len(runs)+7)/8], z[(len(runs)+7)/8:]
			}
			at := 0
			for i := range runs {
				if kind < lineRepeat && mask[i/8]&(1<<(i%8)) == 0 {
					d, k := binary.Varint(z)
					z = z[k:]
					runs[i].d = d
				}
				runs[i].v += runs[i].d
				dst = strconv.AppendInt(append(dst, tmpl[at:runs[i].start]...), runs[i].v, 10)
				at = runs[i].end
			}
			dst = append(dst, tmpl[at:]...)
		}
		if pos >= off {
			out = dst
			continue
		}
		line, pos = dst, pos+len(dst)
		if pos > off {
			out = append(out, dst[len(dst)-(pos-off):]...)
		}
	}
	if len(out) != size-off {
		panic("obs: a packed event log does not unpack to its length")
	}
	return out
}
