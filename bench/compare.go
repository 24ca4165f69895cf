package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultsSchema)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of one workload, b against the
// base a, by the manifest's bound: "worse" when b's median is worse than
// a's by more than the bound; otherwise "unresolved" when either side's
// interquartile spread is wider than the bound — unless every run of b
// reads better than every run of a; otherwise "ok".
func verdict(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb/ma - 1
	better := func(x, y float64) bool { return x < y }
	if d.Better == "higher" {
		worse = 1 - mb/ma
		better = func(x, y float64) bool { return x > y }
	}
	if worse > d.Bound {
		return "worse"
	}
	if spread(a) <= d.Bound && spread(b) <= d.Bound {
		return "ok"
	}
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return "unresolved"
			}
		}
	}
	return "ok"
}

// compareMain is `bench compare a.json b.json`: one row per workload and
// end-to-end metric, and a check that no simulated statistic moved.
func compareMain(manifestPath string, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare base.json other.json")
		return 2
	}
	m, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	if a.Host.class() != b.Host.class() {
		fmt.Fprintf(stderr, "bench compare: refusing to compare across machine classes:\n  %s: %s\n  %s: %s\n",
			args[0], a.Host.class(), args[1], b.Host.class())
		return 2
	}
	if a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "bench compare: runs measured %g s and %g s; run length must be the same on both sides\n", a.Seconds, b.Seconds)
		return 2
	}

	fmt.Fprintf(stdout, "%s\nbase %s (commit %s, seed %d)  other %s (commit %s, seed %d)\n\n",
		a.Host.class(), args[0], a.Commit, a.Seed, args[1], b.Commit, b.Seed)
	fmt.Fprintf(stdout, "%-22s %-18s %-6s %36s %36s %12s %6s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "other median [q1, q3]", "other/base", "bound", "verdict")
	bad := 0
	for _, w := range m.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(stderr, "bench compare: workload %s is missing from one file\n", w.Name)
			return 2
		}
		for _, d := range m.EndToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				fmt.Fprintf(stderr, "bench compare: %s of %s is missing from one file\n", d.Name, w.Name)
				return 2
			}
			v := verdict(d, sa.Values, sb.Values)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(stdout, "%-22s %-18s %-6s %36s %36s %12.4f %6.2f  %s\n", w.Name, d.Name, d.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", sb.Median, sb.Q1, sb.Q3),
				sb.Median/sa.Median, d.Bound, v)
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(stdout, "%-22s failed operations: base %d of %d, other %d of %d\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad++
		}
		// Simulated statistics depend on the seed and on nothing else.
		if a.Seed == b.Seed {
			keys := map[string]bool{}
			for k := range wa.Simulated {
				keys[k] = true
			}
			for k := range wb.Simulated {
				keys[k] = true
			}
			names := make([]string, 0, len(keys))
			for k := range keys {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				if fmt.Sprint(wa.Simulated[k]) != fmt.Sprint(wb.Simulated[k]) {
					fmt.Fprintf(stdout, "%-22s simulated statistic %s moved: base %v, other %v\n", w.Name, k, wa.Simulated[k], wb.Simulated[k])
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d rows are worse than the base or wrong\n", bad)
		return 1
	}
	fmt.Fprintf(stdout, "\nno row is worse than the base by more than its bound; simulated statistics identical\n")
	return 0
}
