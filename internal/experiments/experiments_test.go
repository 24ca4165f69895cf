package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The index holds exactly E1..E16, A1 and A2 in id order, and each
// experiment runs in quick mode and produces a non-empty table under its
// own id.
func TestAllExperimentsQuick(t *testing.T) {
	var ids, want []string
	for _, e := range Index {
		ids = append(ids, e.ID)
	}
	for i := 1; i <= 16; i++ {
		want = append(want, fmt.Sprintf("E%d", i))
	}
	want = append(want, "A1", "A2")
	if !slices.Equal(ids, want) {
		t.Fatalf("experiment index %v, want %v", ids, want)
	}
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, e := range Index {
		r, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := r.String()
		if r.ID != e.ID || !strings.Contains(out, r.ID) || len(strings.Split(out, "\n")) < 4 {
			t.Fatalf("%s: degenerate output (report id %s):\n%s", e.ID, r.ID, out)
		}
	}
}
