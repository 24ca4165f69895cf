package obs

import (
	"bytes"
	"os"
	"runtime"
	"strings"
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

// FuzzPackLines holds the line codec to a round trip over arbitrary bytes:
// the packed form unpacks to the input from every line boundary and from
// the fuzzed byte cut, which may fall inside a line, and Compress returns
// it unless it is not shorter than the input, when it returns nil. Seeds
// switch between shapes, evict the least recently used slot and hold a
// line of more numbers than the codec keeps on the stack.
func FuzzPackLines(f *testing.F) {
	for i, seed := range []string{
		"",
		"\n\n\n",
		"{\"s\":1,\"mv\":9}\n{\"s\":2,\"mv\":10}\n{\"s\":3,\"mv\":8}\n",
		"a007b\na008b\na1b\na2b\n",
		"x999999999999999999y\nx0y\nx9999999999999999999y\nx1y\n",
		"{\"d\":-3}\n{\"d\":-4}\n{\"d\":3}\n{\"d\":-3}\n",
		"{\"cd\":1.25}\n{\"cd\":1.5}\n{\"cd\":0.05}\n{\"cd\":2.75}\n",
		"s 1\r\ns 2\r\ns 3\n s 4\r\n",
		"line 1\nline 2\nline 3",
		"0\n1\n00\n2\n\n3\n",
		"{\"s\":1}\n{\"s\":1,\"k\":\"up\"}\n{\"s\":2}\n{\"s\":3}\n{\"s\":4}\n{\"s\":4,\"k\":\"up\"}\n",
		"a1\nb1\nc1\nd1\ne1\nf1\ng1\nh1\ni1\na2\ni2\nb2\n",
		strings.Repeat("1,", 30) + "\n" + strings.Repeat("2,", 30) + "\n" + strings.Repeat("3,", 30) + "\n",
	} {
		f.Add([]byte(seed), uint(3*i))
	}
	raw, err := os.ReadFile(recordedJob)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint(len(raw)/2))
	f.Fuzz(func(t *testing.T, raw []byte, cut uint) {
		z := appendPacked(nil, raw)
		switch c := Compress(raw); {
		case len(z) >= len(raw) && c != nil:
			t.Fatalf("Compress packed %d bytes to %d, not shorter, and did not return nil", len(raw), len(c))
		case len(z) < len(raw) && !bytes.Equal(c, z):
			t.Fatalf("Compress returned %q, want %q", c, z)
		}
		offs := []int{int(cut % uint(len(raw)+1))}
		for at := 0; ; at++ {
			offs = append(offs, at)
			n := bytes.IndexByte(raw[at:], '\n')
			if n < 0 {
				break
			}
			at += n
		}
		for _, at := range offs {
			if got := unpack(z, at, len(raw)); !bytes.Equal(got, raw[at:]) {
				t.Fatalf("%q unpacked from byte %d gives\n%q\nwant\n%q", raw, at, got, raw[at:])
			}
		}
	})
}

// recordedJob is the metrics JSONL of one n=32 k=4 sweep job, the
// repository benchmark's job 1 (zigzag, a random permutation, 57 step
// lines).
const recordedJob = "testdata/zigzag_n32_k4.jsonl"

// BenchmarkEventLog measures the recorded job's event stream: a fresh log
// fed its step samples and sealed, as a service job's is (step), its lines
// committed as one block and sealed, as the coordinator does with a fleet
// cell's (commit), and a follower reading the sealed log from the start
// (unpack). Each reports the bytes the sealed log keeps (packed-B/job).
func BenchmarkEventLog(b *testing.B) {
	raw, err := os.ReadFile(recordedJob)
	if err != nil {
		b.Fatal(err)
	}
	recs, err := ReadJSONLRecords(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	steps := recs.Steps
	b.Run("step", func(b *testing.B) {
		b.ReportAllocs()
		var log *EventLog
		for i := 0; i < b.N; i++ {
			log = NewEventLog(65536)
			for _, s := range steps {
				log.Step(s)
			}
			seal(log)
		}
		b.ReportMetric(float64(log.Retained()), "packed-B/job")
	})
	b.Run("commit", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		var log *EventLog
		for i := 0; i < b.N; i++ {
			log = NewEventLog(65536)
			log.Commit(raw, len(steps), 0)
			seal(log)
		}
		b.ReportMetric(float64(log.Retained()), "packed-B/job")
	})
	b.Run("unpack", func(b *testing.B) {
		log := NewEventLog(65536)
		log.Commit(raw, len(steps), 0)
		seal(log)
		b.SetBytes(int64(log.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log.From(0)
		}
		b.ReportMetric(float64(log.Retained()), "packed-B/job")
	})
}
