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
	workers := flag.Int("workers", 0, "parallel sweep fan-out (0 = GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	flag.Parse()

	// SIGINT/SIGTERM stop the sweeps between simulation steps; each
	// experiment returns the rows it completed with an "interrupted"
	// note instead of discarding the partial table.
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

	type entry struct {
		id string
		fn func(experiments.Options) (*experiments.Report, error)
	}
	all := []entry{
		{"E1", experiments.E1}, {"E2", experiments.E2}, {"E3", experiments.E3},
		{"E4", experiments.E4}, {"E5", experiments.E5}, {"E6", experiments.E6},
		{"E7", experiments.E7}, {"E8", experiments.E8}, {"E9", experiments.E9},
		{"E10", experiments.E10}, {"E11", experiments.E11}, {"E12", experiments.E12}, {"E13", experiments.E13}, {"E14", experiments.E14},
		{"E15", experiments.E15}, {"E16", experiments.E16},
		{"A1", experiments.A1}, {"A2", experiments.A2},
	}
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		start := time.Now()
		rep, err := e.fn(opts)
		if err != nil {
			return fmt.Errorf("%s failed: %w", e.id, err)
		}
		fmt.Println(rep)
		fmt.Printf("   (%s in %.1fs)\n\n", e.id, time.Since(start).Seconds())
		if csvDir != "" {
			path := filepath.Join(csvDir, strings.ToLower(e.id)+".csv")
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
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted — remaining experiments skipped")
			return nil
		}
	}
	return nil
}
