package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// updateExperiments rewrites the quick-mode golden tables:
//
//	go test ./internal/experiments -run TestAllExperimentsQuick -update-experiments
var updateExperiments = flag.Bool("update-experiments", false,
	"rewrite testdata/quick.txt from the current experiments")

var quickGolden = filepath.Join("testdata", "quick.txt")

// indexIDs checks that the index holds exactly E1..E16, A1 and A2 in id
// order.
func indexIDs(t *testing.T) {
	t.Helper()
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
}

// Every experiment runs in quick mode and renders the table pinned in
// testdata/quick.txt byte for byte.
func TestAllExperimentsQuick(t *testing.T) {
	indexIDs(t)
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	var got bytes.Buffer
	for _, e := range Index {
		r, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if r.ID != e.ID {
			t.Fatalf("%s: report id %s", e.ID, r.ID)
		}
		fmt.Fprintln(&got, r)
	}
	if *updateExperiments {
		if err := os.MkdirAll(filepath.Dir(quickGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(quickGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-experiments to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("quick tables differ from %s at line %d:\n got: %q\nwant: %q", quickGolden, i+1, gl, wl)
		}
	}
}

// Under an already-canceled context every experiment returns, without an
// error, a report marked as a partial table, and no cell starts: the table
// is its header alone.
func TestAllExperimentsCanceled(t *testing.T) {
	indexIDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range Index {
		r, err := e.Run(Options{Quick: true, Ctx: ctx})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if r.ID != e.ID || !slices.Contains(r.Notes, interruptedNote) {
			t.Fatalf("%s: report %s does not carry %q:\n%s", e.ID, r.ID, interruptedNote, r)
		}
		if lines := strings.Count(r.Table.String(), "\n"); lines != 2 {
			t.Fatalf("%s: a canceled run's table has %d lines, want its 2 header lines:\n%s", e.ID, lines, r.Table)
		}
	}
}
