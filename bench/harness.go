package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host describes the machine a results file was measured on. compare
// refuses to set two files side by side unless their class matches:
// numbers from different machines say nothing about the code.
type host struct {
	CPUModel   string            `json:"cpu_model"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Caches     map[string]string `json:"caches"` // e.g. "L2 Unified": "4096K"
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
}

func (h host) class() string {
	return fmt.Sprintf("%s / %d cpus / GOMAXPROCS %d / %s-%s", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH)
}

func thisHost() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Caches: map[string]string{},
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*") // no match is not an error
	for _, d := range dirs {
		read := func(name string) string {
			data, _ := os.ReadFile(filepath.Join(d, name)) // a missing attribute reads as ""
			return strings.TrimSpace(string(data))
		}
		if size := read("size"); size != "" {
			h.Caches["L"+read("level")+" "+read("type")] = size
		}
	}
	return h
}

// series is one end-to-end metric over the untraced runs of a workload.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// workloadResult is one workload's part of a results file.
type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]*series     `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Simulated map[string]any         `json:"simulated"`
}

// results is the file `go run ./bench` writes and `bench compare` reads.
type results struct {
	Schema    string                     `json:"schema"`
	Commit    string                     `json:"commit"`
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultsSchema = "meshroute-bench/v1"

// child runs one workload once in a process of its own, so that peak RSS
// and the heap belong to that run alone, and parses what it printed.
func child(workload string, seed int64, seconds float64, trace int, stderr io.Writer) (resultLine, map[string]any, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	runErr := cmd.Run()

	var res resultLine
	var simulated map[string]any
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "simulated "); ok {
			dec := json.NewDecoder(strings.NewReader(rest))
			dec.UseNumber()
			if err := dec.Decode(&simulated); err != nil {
				return resultLine{}, nil, fmt.Errorf("%s: simulated line: %w", workload, err)
			}
		}
		if strings.Contains(last, " FAILED ") {
			fmt.Fprintln(stderr, last)
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return resultLine{}, nil, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	return res, simulated, nil
}

// untracedReps is how many untraced runs of a workload runAll takes its
// end-to-end medians from.
const untracedReps = 3

// runAll measures every workload of the manifest: untracedReps untraced
// runs for the end-to-end medians, then one traced run for the per-layer
// numbers.
func runAll(m *manifest, seed int64, seconds float64, outPath string, stdout, stderr io.Writer) int {
	all := results{
		Schema: resultsSchema, Commit: commit(), Host: thisHost(), Seed: seed, Seconds: seconds,
		Workloads: map[string]*workloadResult{},
	}
	for _, w := range m.Workloads {
		all.Workloads[w.Name] = &workloadResult{EndToEnd: map[string]*series{}, PerLayer: map[string]metricValue{}, Simulated: map[string]any{}}
	}
	// Round by round, not workload by workload: the host's fast and slow
	// phases last minutes, and a workload whose runs are minutes apart
	// samples several of them.
	for rep := 0; rep <= untracedReps; rep++ {
		trace := 0
		if rep == untracedReps {
			trace = 1
		}
		for _, w := range m.Workloads {
			wr := all.Workloads[w.Name]
			fmt.Fprintf(stderr, "bench: %s run %d of %d (trace %d)\n", w.Name, rep+1, untracedReps+1, trace)
			res, simulated, err := child(w.Name, seed, seconds, trace, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for k, v := range simulated {
				if old, seen := wr.Simulated[k]; seen && fmt.Sprint(old) != fmt.Sprint(v) {
					fmt.Fprintf(stderr, "bench: %s: simulated statistic %s was %v, now %v\n", w.Name, k, old, v)
					wr.Failed++
				}
				wr.Simulated[k] = v
			}
			for name, mv := range res.Metrics {
				if trace == 1 {
					wr.PerLayer[name] = mv
					continue
				}
				if wr.EndToEnd[name] == nil {
					wr.EndToEnd[name] = &series{Unit: mv.Unit}
				}
				wr.EndToEnd[name].Values = append(wr.EndToEnd[name].Values, mv.Value)
			}
		}
	}
	failed := 0
	for _, wr := range all.Workloads {
		failed += wr.Failed
	}

	fmt.Fprintf(stdout, "%s\ncommit %s, seed %d, %g s per run, %d untraced runs + 1 traced per workload\n\n",
		all.Host.class(), all.Commit, seed, seconds, untracedReps)
	fmt.Fprintf(stdout, "%-22s %-18s %14s %14s %14s  %s\n", "workload", "end-to-end", "median", "q1", "q3", "unit")
	for _, w := range m.Workloads {
		wr := all.Workloads[w.Name]
		for _, d := range m.EndToEnd {
			s := wr.EndToEnd[d.Name]
			s.Median = median(s.Values)
			s.Q1, s.Q3 = quartiles(s.Values)
			fmt.Fprintf(stdout, "%-22s %-18s %14.6g %14.6g %14.6g  %s\n", w.Name, d.Name, s.Median, s.Q1, s.Q3, s.Unit)
		}
		fmt.Fprintf(stdout, "%-22s %-18s %14.6g %14s %14s  share (%d of %d)\n", w.Name, "failed_share",
			float64(wr.Failed)/float64(wr.Attempted), "", "", wr.Failed, wr.Attempted)
	}
	fmt.Fprintf(stdout, "\n%-34s", "per-layer (traced run)")
	for _, w := range m.Workloads {
		fmt.Fprintf(stdout, " %13.13s", w.Name)
	}
	fmt.Fprintf(stdout, "  unit\n")
	for _, d := range m.PerLayer {
		fmt.Fprintf(stdout, "%-34s", d.Name)
		for _, w := range m.Workloads {
			fmt.Fprintf(stdout, " %13.6g", all.Workloads[w.Name].PerLayer[d.Name].Value)
		}
		fmt.Fprintf(stdout, "  %s\n", d.Unit)
	}

	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(outPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresults written to %s\n", outPath)
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d checks failed\n", failed)
		return 1
	}
	return 0
}

// commit names the checkout being measured; a tree that is not a git
// repository (the benchmark driver's) is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
