package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := map[int]int{
		1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 15: 3, 16: 4,
		31: 4, 32: 5, 64: 6, 127: 6, 128: 7, 834: 7, 1 << 20: 7,
	}
	for v, want := range cases {
		if got := BucketOf(v); got != want {
			t.Errorf("BucketOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestQueueHistAdd(t *testing.T) {
	var h QueueHist
	h.Add(0) // ignored
	h.Add(1)
	h.Add(3)
	h.Add(3)
	h.Add(200)
	if h[0] != 1 || h[1] != 2 || h[NumQueueBuckets-1] != 1 {
		t.Fatalf("unexpected histogram %v", h)
	}
	if h.Total() != 4 {
		t.Fatalf("Total = %d, want 4", h.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	s1 := StepSample{Step: 1, Moves: 3, Delivered: 1, DeliveredTotal: 1, InFlight: 9, MaxQueue: 2}
	s1.LinkUse[0] = 2
	s1.LinkUse[1] = 1
	s1.QueueHist.Add(2)
	j.Step(s1)
	sp := Span{Name: "march", Class: "NE", Iteration: 1, Tiling: 2, Axis: "v", Start: 10, Measured: 5, Formula: 8}
	j.Span(sp)
	j.Step(StepSample{Step: 2, DeliveredTotal: 1, InFlight: 8})
	ev := Event{Step: 2, Kind: "link-down", Node: 17, Dir: "East", Detail: "permanent"}
	j.Event(ev)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.StepCount() != 2 || j.SpanCount() != 1 {
		t.Fatalf("counts = %d steps, %d spans", j.StepCount(), j.SpanCount())
	}
	if got := strings.Count(buf.String(), "\n"); got != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", got, buf.String())
	}

	rec, err := ReadJSONLRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, spans, events := rec.Steps, rec.Spans, rec.Events
	if len(steps) != 2 || len(spans) != 1 || len(events) != 1 {
		t.Fatalf("read %d steps, %d spans, %d events", len(steps), len(spans), len(events))
	}
	if steps[0] != s1 {
		t.Errorf("step round trip: got %+v, want %+v", steps[0], s1)
	}
	if spans[0] != sp {
		t.Errorf("span round trip: got %+v, want %+v", spans[0], sp)
	}
	if events[0] != ev {
		t.Errorf("event round trip: got %+v, want %+v", events[0], ev)
	}
}

func TestReadJSONLUnknownType(t *testing.T) {
	if _, err := ReadJSONLRecords(strings.NewReader(`{"t":"bogus"}`)); err == nil {
		t.Fatal("want error for unknown line type")
	}
}

// TestRecordsSinkMatchesReadBack feeds the same records to a Records sink
// and to a JSONL stream: reading the stream back gives the same Records.
func TestRecordsSinkMatchesReadBack(t *testing.T) {
	var got Records
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	for _, sink := range []Sink{&got, j} {
		for i := 1; i <= 3; i++ {
			s := StepSample{Step: i, DeliveredTotal: i * 2, InFlight: 10 - i, MaxQueue: i}
			s.LinkUse[2] = i
			sink.Step(s)
		}
		sink.Span(Span{Name: "basecase", Measured: 4, Formula: 5})
		sink.Event(Event{Step: 2, Kind: "link-down", Node: 3, Dir: "E"})
		sink.Run(RunSummary{Router: "dimorder", Makespan: 3, Congestion: 1, Dilation: 2, CDRatio: 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got.Steps) != 3 || got.Steps[2].DeliveredTotal != 6 || len(got.Spans) != 1 || len(got.Events) != 1 || len(got.Runs) != 1 {
		t.Fatalf("Records kept %+v", got)
	}
	back, err := ReadJSONLRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Fatalf("read back %+v\nwant %+v", back, got)
	}
}

func TestMultiFansOut(t *testing.T) {
	a, b := &Records{}, &Records{}
	mu := Multi{a, b}
	mu.Step(StepSample{Step: 1})
	mu.Span(Span{Name: "march"})
	mu.Event(Event{Step: 1, Kind: "node-stall", Node: 4})
	if len(a.Steps) != 1 || len(b.Steps) != 1 || len(a.Spans) != 1 || len(b.Spans) != 1 {
		t.Fatal("Multi did not fan out to all sinks")
	}
	if len(a.Events) != 1 || len(b.Events) != 1 {
		t.Fatal("Multi did not fan events out to all sinks")
	}
}
