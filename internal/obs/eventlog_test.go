package obs

import (
	"bytes"
	"runtime"
	"testing"
)

// allSink is every sink interface an event log implements.
type allSink interface {
	Sink
	EventSink
	RunSink
}

// fuzzRecords decodes ops into a sequence of step, span, fault and run
// records, one per byte: the low two bits pick the type, and the rest of
// the byte and the bytes after it fill the fields (strings included, so
// invalid UTF-8 and characters JSON escapes occur).
func fuzzRecords(ops []byte) []func(allSink) {
	recs := make([]func(allSink), 0, len(ops))
	for i, b := range ops {
		v, tail := int(b>>2), string(ops[i:min(i+int(b%7), len(ops))])
		switch b & 3 {
		case 0:
			s := StepSample{Step: i + 1, Moves: v, Delivered: v / 3, DeliveredTotal: i * v, InFlight: v ^ i, MaxQueue: v % 5, Offered: v % 2, Backlog: -v % 3}
			s.LinkUse[v%4], s.QueueHist[v%NumQueueBuckets] = v, i
			recs = append(recs, func(k allSink) { k.Step(s) })
		case 1:
			sp := Span{Name: tail, Class: "NE"[:v%3], Iteration: v, Tiling: i % 3, Axis: "v", Start: i, Measured: v, Formula: 2 * v}
			recs = append(recs, func(k allSink) { k.Span(sp) })
		case 2:
			e := Event{Step: i, Kind: "link-down", Node: v - 1, Dir: "EN"[:v%3], Detail: tail}
			recs = append(recs, func(k allSink) { k.Event(e) })
		default:
			r := RunSummary{Scenario: tail, Router: "thm15", Makespan: i, Congestion: v, Dilation: v + i, CDRatio: float64(v) / 7}
			recs = append(recs, func(k allSink) { k.Run(r) })
		}
	}
	return recs
}

// FuzzEventLog pins the event log to the JSONL sink over any sequence of
// records and any limit: its bytes are the JSONL sink's for the first
// limit records, it counts the rest as dropped, a follower reading from a
// byte offset at arbitrary points (and holding on to what it read) ends
// with the same bytes, and committing the unbounded log's lines in
// arbitrary blocks rebuilds the bounded log exactly.
func FuzzEventLog(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, 4)
	f.Add([]byte{0x80, 0x44, 0xc1, 0x02, 0xff, 0x7b, 0x22, 0x5c}, 5)
	f.Add([]byte("step after step, span, fault and run"), 12)
	f.Add([]byte{0, 4, 8, 12}, 0)
	f.Add([]byte{3, 7}, -1)
	f.Fuzz(func(t *testing.T, ops []byte, limit int) {
		recs := fuzzRecords(ops)
		kept := max(0, min(len(recs), limit))

		var want bytes.Buffer
		sink := NewJSONL(&want)
		for _, rec := range recs[:kept] {
			rec(sink)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}

		log, all := NewEventLog(limit), NewEventLog(len(recs))
		var chunks [][]byte
		off := 0
		for i, rec := range recs {
			rec(log)
			rec(all)
			if ops[i]&0x80 != 0 {
				chunks = append(chunks, log.Bytes()[off:])
				off = len(log.Bytes())
			}
		}
		log.Trim()
		chunks = append(chunks, log.Bytes()[off:])
		if !bytes.Equal(log.Bytes(), want.Bytes()) {
			t.Fatalf("log bytes differ from the JSONL sink's first %d records\n got: %q\nwant: %q", kept, log.Bytes(), want.Bytes())
		}
		if log.Lines() != kept || log.Dropped() != len(recs)-kept {
			t.Fatalf("log kept %d and dropped %d of %d records at limit %d", log.Lines(), log.Dropped(), len(recs), limit)
		}
		if got := bytes.Join(chunks, nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("offset reads concatenate to\n%q\nwant\n%q", got, want.Bytes())
		}

		committed, b := NewEventLog(limit), all.Bytes()
		start, end, lines := 0, 0, 0
		for i := range recs {
			end += bytes.IndexByte(b[end:], '\n') + 1
			lines++
			if ops[i]&0x40 != 0 || i == len(recs)-1 {
				committed.Commit(b[start:end], lines, 0)
				start, lines = end, 0
			}
		}
		committed.Commit(nil, 0, 3) // drops upstream of the log add up
		if !bytes.Equal(committed.Bytes(), want.Bytes()) || committed.Lines() != kept || committed.Dropped() != len(recs)-kept+3 {
			t.Fatalf("committed blocks kept %d, dropped %d, bytes\n%q\nwant %d, %d,\n%q",
				committed.Lines(), committed.Dropped(), committed.Bytes(), kept, len(recs)-kept+3, want.Bytes())
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
// k=4 sweep job's (56 step lines): a fresh log fed the lines and trimmed, as
// a service job's is (step), and the same lines committed as one block, as
// the coordinator does with a fleet cell's (commit).
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
			log.Trim()
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
			log.Trim()
		}
	})
}
