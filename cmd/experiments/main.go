// Command experiments regenerates every table of the reproduction (the
// per-experiment index in DESIGN.md): the lower-bound constructions of
// Sections 3–5, the Theorem 15 and Theorem 34 upper bounds, the h-h and
// torus extensions, the average-case framing, the escape-hatch comparison
// of Section 7, and the two ablations.
//
// Usage:
//
//	experiments [-full] [-only E1,E5]
//	experiments -only E5 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The pprof flags profile the harness itself (docs/OBSERVABILITY.md walks
// through reading the profiles); for calibrated, machine-readable timings
// use the repository benchmark (go run ./bench) instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"meshroute/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the full (slow) parameter sweeps")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5,A2)")
	csvDir := flag.String("csv", "", "also write each experiment's table as <id>.csv into this directory")
	workers := flag.Int("workers", 0, "cells of a table run at once (0 = GOMAXPROCS, 1 = one at a time)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	// SIGINT/SIGTERM stop the sweeps between simulation steps; the
	// running experiment prints the rows it completed with an
	// "interrupted" note, writes no CSV, and the command exits 1.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var cpuOut *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		cpuOut = f
	}

	err := runAll(experiments.Options{Quick: !*full, Workers: *workers, Ctx: ctx}, *only, *csvDir)

	if cpuOut != nil {
		pprof.StopCPUProfile()
		if cerr := cpuOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memprofile != "" {
		if werr := writeHeapProfile(*memprofile); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runAll(opts experiments.Options, only, csvDir string) error {
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.ID, err)
		}
		fmt.Println(rep)
		fmt.Printf("   (%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		// A canceled context means the table may be partial: print it,
		// but write no <id>.csv a script would take for a complete one.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return fmt.Errorf("%s interrupted: partial table not written, remaining experiments skipped", e.ID)
		}
		if csvDir != "" {
			path := filepath.Join(csvDir, strings.ToLower(e.ID)+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := rep.Table.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("   (table written to %s)\n\n", path)
		}
	}
	return nil
}
