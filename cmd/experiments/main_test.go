package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshroute/internal/experiments"
)

// TestRunAllInterruptedWritesNoCSV checks that an experiment run under a
// canceled context is reported as an error naming it and leaves no
// <id>.csv behind: its table may be partial.
func TestRunAllInterruptedWritesNoCSV(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	err := runAll(experiments.Options{Quick: true, Ctx: ctx}, "E4", dir)
	if err == nil || !strings.Contains(err.Error(), "E4") {
		t.Fatalf("runAll under a canceled context: %v, want an error naming E4", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "e4.csv")); !os.IsNotExist(err) {
		t.Fatalf("an interrupted E4 left e4.csv (stat: %v)", err)
	}
}
