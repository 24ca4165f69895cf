package obs

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// recordingWriter keeps every Write's bytes, and fails the failAt-th call
// (1-based; 0 never fails) with errFull.
type recordingWriter struct {
	writes [][]byte
	failAt int
}

var errFull = errors.New("no space left")

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	if len(w.writes) == w.failAt {
		return 0, errFull
	}
	return len(p), nil
}

// manyRecords is a record sequence of every kind whose lines come to about
// 150 KiB, so a JSONL sink writes several chunks.
func manyRecords() []func(Sink) {
	ops := make([]byte, 1500)
	for i := range ops {
		ops[i] = byte(i*37 + i/7)
	}
	return fuzzRecords(ops)
}

// TestJSONLWritesChunks pins the JSONL sink's writer contract: one Write
// as soon as its lines reach jsonlChunk bytes, whole lines only, one more
// at Close for the rest, and the writes together are the bytes of an
// event log given the same records.
func TestJSONLWritesChunks(t *testing.T) {
	recs := manyRecords()
	w := &recordingWriter{}
	j := NewJSONL(w)
	log := NewEventLog(len(recs))
	for _, rec := range recs {
		rec(j)
		rec(log)
	}
	before := len(w.writes)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != before+1 {
		t.Fatalf("Close made %d writes, want 1", len(w.writes)-before)
	}
	if err := j.Close(); err != nil || len(w.writes) != before+1 {
		t.Fatalf("a second Close wrote again or failed (%v)", err)
	}
	want := log.Bytes()
	if got := bytes.Join(w.writes, nil); !bytes.Equal(got, want) {
		t.Fatalf("the writes concatenate to %d bytes that differ from the event log's %d", len(got), len(want))
	}
	if before < 3 || before != len(want)/jsonlChunk && before != len(want)/jsonlChunk-1 {
		t.Fatalf("%d writes before Close for %d bytes of lines, want one per %d", before, len(want), jsonlChunk)
	}
	for i, b := range w.writes[:before] {
		last := bytes.LastIndexByte(b[:len(b)-1], '\n') + 1
		if b[len(b)-1] != '\n' || len(b) < jsonlChunk || last >= jsonlChunk {
			t.Fatalf("write %d is %d bytes (%d before its last line), want whole lines that first reach %d", i, len(b), last, jsonlChunk)
		}
	}
}

// TestJSONLStopsAtWriteError: once a write fails, the sink writes nothing
// more, and Close returns that write's error.
func TestJSONLStopsAtWriteError(t *testing.T) {
	for _, failAt := range []int{1, 2, 3} {
		w := &recordingWriter{failAt: failAt}
		j := NewJSONL(w)
		for _, rec := range manyRecords() {
			rec(j)
		}
		if err := j.Close(); !errors.Is(err, errFull) {
			t.Fatalf("failing write %d: Close returned %v, want %v", failAt, err, errFull)
		}
		if len(w.writes) != failAt {
			t.Fatalf("failing write %d: the sink made %d writes, want none after the failed one", failAt, len(w.writes))
		}
	}
}

// TestJSONLStepZeroAllocs is TestEventLogStepZeroAllocs for the JSONL
// sink: once its buffer has grown to a chunk, encoding step lines and
// writing them out allocates nothing.
func TestJSONLStepZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	j := NewJSONL(io.Discard)
	s := StepSample{Moves: 3017, LinkUse: [4]int{801, 754, 760, 702}, InFlight: 4096, OccupiedNodes: 1024, MaxQueue: 4, QueueHist: QueueHist{220, 512, 280, 12}}
	steps := func(from int) {
		for i := from; i < from+2000; i++ {
			s.Step, s.Delivered, s.DeliveredTotal = i, i%97, 31*i
			j.Step(s)
		}
	}
	steps(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	steps(2001)
	runtime.ReadMemStats(&after)
	if mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; mallocs != 0 || bytes != 0 {
		t.Fatalf("2000 steps made %d allocations of %d bytes, want 0 and 0", mallocs, bytes)
	}
	if err := j.Close(); err != nil || j.StepCount() != 4000 {
		t.Fatalf("Close: %v after %d steps, want nil after 4000", err, j.StepCount())
	}
}
