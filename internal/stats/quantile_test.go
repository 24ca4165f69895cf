package stats

import (
	"math"
	"slices"
	"testing"
)

// sortedQuantiles is the nearest-rank quantile by sorting: the samples'
// value at rank ⌈q·len⌉, clamped to the sample.
func sortedQuantiles(samples []int, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(samples) == 0 {
		return out
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	for i, q := range qs {
		r := min(max(int(math.Ceil(q*float64(len(s))))-1, 0), len(s)-1)
		out[i] = float64(s[r])
	}
	return out
}

// histogram counts the samples by value.
func histogram(samples []int) []int {
	var counts []int
	for _, v := range samples {
		if v >= len(counts) {
			counts = append(counts, make([]int, v+1-len(counts))...)
		}
		counts[v]++
	}
	return counts
}

var quantileLevels = []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 0.999, 1}

func checkCountQuantiles(t *testing.T, samples []int) {
	t.Helper()
	got := CountQuantiles(histogram(samples), quantileLevels...)
	want := sortedQuantiles(samples, quantileLevels...)
	if !slices.Equal(got, want) {
		t.Fatalf("samples %v: CountQuantiles %v, sorted nearest rank %v", samples, got, want)
	}
}

// TestCountQuantilesMatchSorting holds the histogram quantiles to the
// nearest rank of the sorted samples: an empty sample, a single one,
// all-equal ones, zeros with a long tail, and a histogram whose counts end
// in zeros.
func TestCountQuantilesMatchSorting(t *testing.T) {
	tail := make([]int, 1000)
	for i := range tail {
		tail[i] = i % 7
	}
	tail[17], tail[500], tail[999] = 400, 90, 2000
	for name, samples := range map[string][]int{
		"empty":     nil,
		"single":    {5},
		"zero":      {0},
		"all-equal": {3, 3, 3, 3, 3, 3},
		"two":       {9, 1},
		"long-tail": tail,
	} {
		t.Run(name, func(t *testing.T) { checkCountQuantiles(t, samples) })
	}
	if got := CountQuantiles([]int{0, 2, 0, 0}, 0.5, 1); !slices.Equal(got, []float64{1, 1}) {
		t.Fatalf("trailing empty buckets: %v, want [1 1]", got)
	}
}

// FuzzCountQuantiles holds CountQuantiles to sorting on arbitrary small
// integer samples, one byte a sample.
func FuzzCountQuantiles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{7, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		samples := make([]int, len(data))
		for i, b := range data {
			samples[i] = int(b)
		}
		checkCountQuantiles(t, samples)
	})
}
