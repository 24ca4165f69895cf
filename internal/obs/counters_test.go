package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestCountersAggregates checks the fold arithmetic.
func TestCountersAggregates(t *testing.T) {
	var c Counters
	c.Step(StepSample{Step: 1, Moves: 3, Delivered: 1})
	c.Step(StepSample{Step: 2, Moves: 5, Delivered: 2})
	c.Span(Span{Name: "march"})
	c.Event(Event{Kind: "link-down"})
	c.Event(Event{Kind: "link-up"})
	if got, want := c.Totals(), (Totals{Steps: 2, Moves: 8, Delivered: 3, Spans: 1, Events: 2}); got != want {
		t.Errorf("Totals() = %+v, want %+v", got, want)
	}
}

// TestCountersConcurrent hammers one Counters from many goroutines — the
// sharing pattern of the simulation service — and checks nothing is lost.
// Run with -race.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Step(StepSample{Moves: 2, Delivered: 1})
				c.Event(Event{})
			}
		}()
	}
	wg.Wait()
	want := Totals{Steps: workers * per, Moves: 2 * workers * per, Delivered: workers * per, Events: workers * per}
	if got := c.Totals(); got != want {
		t.Errorf("Totals() = %+v, want %+v", got, want)
	}
}

// TestCountersTotalsAdd checks the fleet's transfer: runs counted into
// private Counters and added as Totals — concurrently, with a JSON trip in
// between, as cell results arrive at a coordinator — leave a shared Counters
// reading exactly what it reads when fed the same records directly.
func TestCountersTotalsAdd(t *testing.T) {
	feed := func(c *Counters, i int) {
		c.Step(StepSample{Step: 1, Moves: 3 + i, Delivered: 1, Offered: i, Admitted: i, Refused: 2 * i})
		c.Step(StepSample{Step: 2, Moves: 5, Delivered: 2})
		c.Span(Span{Name: "march"})
		c.Event(Event{Kind: "link-down"})
		c.Run(RunSummary{Makespan: 30 + i, Congestion: 4, Dilation: 9 + i})
	}
	var direct, shared Counters
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		feed(&direct, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cell Counters
			feed(&cell, i)
			wire, err := json.Marshal(cell.Totals())
			if err != nil {
				t.Error(err)
				return
			}
			var tot Totals
			if err := json.Unmarshal(wire, &tot); err != nil {
				t.Error(err)
				return
			}
			shared.Add(tot)
		}()
	}
	wg.Wait()
	if got, want := shared.Totals(), direct.Totals(); got != want {
		t.Fatalf("added totals %+v, direct %+v", got, want)
	}
	if got, want := shared.Totals().CDRatio(), direct.Totals().CDRatio(); got != want {
		t.Fatalf("CDRatio %v after Add, %v direct", got, want)
	}
}

// TestLineEncodersMatchJSONLSink checks the event log and the JSONL sink
// write the documented line of every record type (docs/OBSERVABILITY.md;
// the golden file holds step lines only), and that ReadJSONLRecords reads
// them back.
func TestLineEncodersMatchJSONLSink(t *testing.T) {
	sample := StepSample{Step: 3, Moves: 4, Delivered: 1, DeliveredTotal: 2, InFlight: 7, MaxQueue: 2}
	span := Span{Name: "march", Class: "NE", Iteration: 1, Measured: 9, Formula: 12}
	event := Event{Step: 5, Kind: "link-down", Node: 11, Dir: "E", Detail: "permanent"}
	run := RunSummary{Scenario: "s", Router: "thm15", Makespan: 30, Congestion: 8, Dilation: 14, CDRatio: 30.0 / 22}

	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	log := NewEventLog(4)
	for _, s := range []Sink{sink, log} {
		s.Step(sample)
		s.Span(span)
		s.Event(event)
		s.Run(run)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	lines := log.Bytes()
	if !bytes.Equal(lines, buf.Bytes()) {
		t.Fatalf("event log diverges from JSONL sink\n got: %q\nwant: %q", lines, buf.Bytes())
	}
	want := `{"t":"step","s":3,"mv":4,"lu":[0,0,0,0],"dv":1,"dt":2,"if":7,"on":0,"mq":2,"qh":[0,0,0,0,0,0,0,0]}
{"t":"span","name":"march","class":"NE","iter":1,"tau":0,"start":0,"measured":9,"formula":12}
{"t":"fault","s":5,"k":"link-down","n":11,"d":"E","msg":"permanent"}
{"t":"run","scenario":"s","router":"thm15","makespan":30,"congestion":8,"dilation":14,"cd_ratio":1.3636363636363635}
`
	if string(lines) != want {
		t.Fatalf("lines differ from the documented wire format\n got: %q\nwant: %q", lines, want)
	}

	rec, err := ReadJSONLRecords(bytes.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) != 1 || len(rec.Spans) != 1 || len(rec.Events) != 1 || len(rec.Runs) != 1 {
		t.Fatalf("ReadJSONLRecords parsed %d/%d/%d/%d records, want 1/1/1/1", len(rec.Steps), len(rec.Spans), len(rec.Events), len(rec.Runs))
	}
	if rec.Steps[0] != sample || rec.Spans[0] != span || rec.Events[0] != event || rec.Runs[0] != run {
		t.Fatal("round-tripped records differ from originals")
	}
}
