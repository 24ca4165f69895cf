package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// expectedStats is bench/expected.json: workload → seed → the exact
// simulated statistics a run of fullSizes must reproduce. They are
// properties of the simulated network, not of the host: a change that only
// makes the program faster leaves every one of them bit-identical.
type expectedStats map[string]map[string]map[string]any

func loadExpected(path string) (expectedStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber() // keep integers exact and printable as written
	var f expectedStats
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// lookup returns the pinned statistics for a run, or nil when there are
// none: other seeds and other sizes are checked by invariants only.
func (f expectedStats) lookup(workload string, seed int64, sz sizes) map[string]any {
	if sz != fullSizes {
		return nil
	}
	return f[workload][strconv.FormatInt(seed, 10)]
}

// pinExpected rewrites the expected file from traced runs of seeds 1 and
// 2 (a traced run computes every statistic an untraced one does, and the
// yardstick besides). Only a change that means to alter simulated
// behaviour, or the sizes, should ever need it.
func pinExpected(m *manifest, path string, log io.Writer) error {
	f := expectedStats{}
	for _, w := range m.Workloads {
		f[w.Name] = map[string]map[string]any{}
		for seed := int64(1); seed <= 2; seed++ {
			res, simulated, err := runOne(runConfig{
				manifest: m, workload: w.Name, seed: seed, seconds: 1, trace: true,
				sz: fullSizes, outDir: outDir, log: log,
			})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d checks failed; not pinning a wrong run", w.Name, seed, res.Failed, res.Attempted)
			}
			f[w.Name][strconv.FormatInt(seed, 10)] = simulated
			fmt.Fprintf(log, "pinned %s seed %d: %d statistics\n", w.Name, seed, len(simulated))
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
