package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// fuzzRecords decodes ops into a sequence of step, span, fault and run
// records, one per byte: the low two bits pick the type, and the rest of
// the byte and the bytes after it fill the fields (strings included, so
// invalid UTF-8 and characters JSON escapes occur).
func fuzzRecords(ops []byte) []func(Sink) {
	recs := make([]func(Sink), 0, len(ops))
	for i, b := range ops {
		v, tail := int(b>>2), string(ops[i:min(i+int(b%7), len(ops))])
		switch b & 3 {
		case 0:
			s := StepSample{Step: i + 1, Moves: v, Delivered: v / 3, DeliveredTotal: i * v, InFlight: v ^ i, MaxQueue: v % 5, Offered: v % 2, Backlog: -v % 3}
			s.LinkUse[v%4], s.QueueHist[v%NumQueueBuckets] = v, i
			recs = append(recs, func(k Sink) { k.Step(s) })
		case 1:
			sp := Span{Name: tail, Class: "NE"[:v%3], Iteration: v, Tiling: i % 3, Axis: "v", Start: i, Measured: v, Formula: 2 * v}
			recs = append(recs, func(k Sink) { k.Span(sp) })
		case 2:
			e := Event{Step: i, Kind: "link-down", Node: v - 1, Dir: "EN"[:v%3], Detail: tail}
			recs = append(recs, func(k Sink) { k.Event(e) })
		default:
			r := RunSummary{Scenario: tail, Router: "thm15", Makespan: i, Congestion: v, Dilation: v + i, CDRatio: float64(v) / 7}
			recs = append(recs, func(k Sink) { k.Run(r) })
		}
	}
	return recs
}

// seal seals and packs a log, as the service does when a job retires.
func seal(l *EventLog) {
	l.Seal()
	l.Pack(Compress(l.Bytes()))
}

// FuzzEventLog pins the event log to the JSONL sink over any sequence of
// records, any limit and any point at which the log is sealed: its bytes
// are the JSONL sink's for the first limit records before the seal, it
// counts the rest as dropped, a follower reading from a byte offset at
// arbitrary points (and holding on to what it read) ends with the same
// bytes, reads from every line boundary of the sealed log match, records
// and commits after the seal write nothing, and committing the unbounded
// log's lines in arbitrary blocks rebuilds the bounded log exactly.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, 4, uint(4))
	f.Add([]byte{0x80, 0x44, 0xc1, 0x02, 0xff, 0x7b, 0x22, 0x5c}, 5, uint(6))
	f.Add([]byte("step after step, span, fault and run"), 12, uint(30))
	f.Add([]byte{0, 4, 8, 12}, 0, uint(1))
	f.Add([]byte{3, 7}, -1, uint(0))
	f.Add(bytes.Repeat([]byte{0x80, 0, 4, 8, 0xc0}, 40), 150, uint(170))
	f.Add([]byte("sealed early, with room for every record after"), 100, uint(5))
	f.Fuzz(func(t *testing.T, ops []byte, limit int, sealPoint uint) {
		recs := fuzzRecords(ops)
		sealAt := int(sealPoint % uint(len(recs)+1))
		kept := max(0, min(sealAt, limit))

		var want bytes.Buffer
		sink := NewJSONL(&want)
		for _, rec := range recs[:kept] {
			rec(sink)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		log := NewEventLog(limit)
		var chunks [][]byte
		off := 0
		for i, rec := range recs[:sealAt] {
			rec(log)
			if ops[i]&0x80 != 0 {
				chunks = append(chunks, log.From(off))
				off = log.Len()
			}
		}
		lines, dropped := log.Lines(), log.Dropped()
		seal(log)
		if log.Lines() != lines || log.Dropped() != dropped {
			t.Fatalf("sealing moved the counts from %d kept, %d dropped to %d, %d", lines, dropped, log.Lines(), log.Dropped())
		}
		if z := log.Retained(); log.Len() > 0 && z > log.Len() {
			t.Fatalf("the sealed log holds %d bytes for %d", z, log.Len())
		}
		retained := log.Retained()
		seal(log)
		if log.Retained() != retained || log.Len() != want.Len() {
			t.Fatalf("a second seal changed the log from %d to %d retained bytes", retained, log.Retained())
		}

		for _, rec := range recs[sealAt:] {
			rec(log)
		}
		log.Commit([]byte("{}\n{}\n"), 2, 1)
		chunks = append(chunks, log.From(off))
		if !bytes.Equal(log.Bytes(), want.Bytes()) {
			t.Fatalf("log bytes differ from the JSONL sink's first %d records\n got: %q\nwant: %q", kept, log.Bytes(), want.Bytes())
		}
		if log.Lines() != kept || log.Dropped() != len(recs)-kept+3 {
			t.Fatalf("log kept %d and dropped %d of %d records (+3 committed after the seal) at limit %d, sealed after %d",
				log.Lines(), log.Dropped(), len(recs), limit, sealAt)
		}
		if got := bytes.Join(chunks, nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("offset reads across the seal concatenate to\n%q\nwant\n%q", got, want.Bytes())
		}
		for at := 0; at < want.Len(); at += bytes.IndexByte(want.Bytes()[at:], '\n') + 1 {
			if got := log.From(at); !bytes.Equal(got, want.Bytes()[at:]) {
				t.Fatalf("the sealed log read from byte %d gives\n%q\nwant\n%q", at, got, want.Bytes()[at:])
			}
		}

		all := NewEventLog(len(recs))
		for _, rec := range recs[:sealAt] {
			rec(all)
		}
		committed, b := NewEventLog(limit), all.Bytes()
		start, end, n := 0, 0, 0
		for i := range recs[:sealAt] {
			end += bytes.IndexByte(b[end:], '\n') + 1
			n++
			if ops[i]&0x40 != 0 || i == sealAt-1 {
				committed.Commit(b[start:end], n, 0)
				start, n = end, 0
			}
		}
		committed.Commit(nil, 0, 3) // drops upstream of the log add up
		if !bytes.Equal(committed.Bytes(), want.Bytes()) || committed.Lines() != kept || committed.Dropped() != sealAt-kept+3 {
			t.Fatalf("committed blocks kept %d, dropped %d, bytes\n%q\nwant %d, %d,\n%q",
				committed.Lines(), committed.Dropped(), committed.Bytes(), kept, sealAt-kept+3, want.Bytes())
		}
	})
}

// TestEventLogStepZeroAllocs is the event log's exact gate, in the manner
// of internal/sim's requireZeroAllocSteps: once the log's buffer has grown
// to a job's size, appending that job's step lines, and counting the steps
// past the limit as dropped, allocates nothing.
func TestEventLogStepZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const steps = 2000
	log := NewEventLog(steps)
	job := func() {
		log.buf, log.lines, log.dropped = log.buf[:0], 0, 0
		s := StepSample{Moves: 3017, LinkUse: [4]int{801, 754, 760, 702}, InFlight: 4096, OccupiedNodes: 1024, MaxQueue: 4, QueueHist: QueueHist{220, 512, 280, 12}}
		for i := 1; i <= steps+100; i++ {
			s.Step, s.Delivered, s.DeliveredTotal = i, i%97, 31*i
			log.Step(s)
		}
	}
	job()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job()
	runtime.ReadMemStats(&after)
	if mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; mallocs != 0 || bytes != 0 {
		t.Fatalf("%d step appends made %d allocations of %d bytes, want 0 and 0", steps+100, mallocs, bytes)
	}
	if log.Lines() != steps || log.Dropped() != 100 {
		t.Fatalf("log kept %d and dropped %d, want %d and 100", log.Lines(), log.Dropped(), steps)
	}
}

// BenchmarkEventLog measures one job's event stream, sized like an n=32
// k=4 sweep job's (56 step lines): a fresh log fed the lines and sealed, as
// a service job's is (step), the same lines committed as one block and
// sealed, as the coordinator does with a fleet cell's (commit), and a
// follower reading a sealed log from the start (inflate).
func BenchmarkEventLog(b *testing.B) {
	const steps = 56
	s := StepSample{Moves: 812, LinkUse: [4]int{210, 198, 205, 199}, InFlight: 2048, OccupiedNodes: 700, MaxQueue: 4, QueueHist: QueueHist{300, 250, 140, 10}}
	feed := func(log *EventLog) {
		for i := 1; i <= steps; i++ {
			s.Step, s.DeliveredTotal = i, 17*i
			log.Step(s)
		}
	}
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			log := NewEventLog(65536)
			feed(log)
			seal(log)
		}
	})
	b.Run("commit", func(b *testing.B) {
		cell := NewEventLog(65536)
		feed(cell)
		b.SetBytes(int64(len(cell.Bytes())))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log := NewEventLog(65536)
			log.Commit(cell.Bytes(), cell.Lines(), 0)
			seal(log)
		}
	})
	b.Run("inflate", func(b *testing.B) {
		log := NewEventLog(65536)
		feed(log)
		seal(log)
		b.SetBytes(int64(log.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log.From(0)
		}
	})
}
