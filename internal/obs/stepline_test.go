package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// stepLine is the encoding/json definition of a step line: the discriminator
// followed by the sample's fields, flattened by embedding. The spanLine,
// faultLine and runLine lines are still produced this way.
type stepLine struct {
	T string `json:"t"`
	StepSample
}

// FuzzStepLineMatchesEncodingJSON pins the hand-written step-line encoder to
// encoding/json, byte for byte, over arbitrary samples: zero and negative
// values of the four omitempty fields included (zero is omitted, a negative
// is not).
func FuzzStepLineMatchesEncodingJSON(f *testing.F) {
	f.Add(1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0)
	f.Add(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Add(400, 57, 12, 30, 24496, 311, 3, 61, 60, 1, 1)
	f.Add(-1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11)
	f.Add(math.MaxInt, math.MinInt, math.MaxInt32, math.MinInt32, 1<<40, 9, 10, math.MaxInt, math.MinInt, -1, 1)
	f.Fuzz(func(t *testing.T, step, moves, lu, dv, dt, inFlight, mq, of, ad, rf, bl int) {
		s := StepSample{
			Step: step, Moves: moves, Delivered: dv, DeliveredTotal: dt,
			InFlight: inFlight, OccupiedNodes: inFlight ^ moves, MaxQueue: mq,
			Offered: of, Admitted: ad, Refused: rf, Backlog: bl,
		}
		for i := range s.LinkUse {
			s.LinkUse[i] = lu * (i - 1)
		}
		for i := range s.QueueHist {
			s.QueueHist[i] = dt >> (3 * i) * (1 - 2*(i&1))
		}
		want, err := json.Marshal(stepLine{T: LineStep, StepSample: s})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')

		prefix := []byte("kept")
		if got := AppendStepLine(prefix, s); !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
			t.Fatalf("AppendStepLine\n got: %q\nwant: %q", got, want)
		}
		var sink bytes.Buffer
		j := NewJSONL(&sink)
		j.Step(s)
		if err := j.Close(); err != nil || !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("JSONL.Step\n got: %q (%v)\nwant: %q", sink.Bytes(), err, want)
		}
	})
}
