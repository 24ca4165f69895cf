// Package stats provides the small numeric and formatting helpers used by
// the experiment harness: fixed-width tables, series summaries, and
// log-log power-law fits for checking asymptotic shapes (e.g. that the
// measured routing time of the constructed permutations grows like n²).
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table renders rows with fixed-width, right-aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// WriteCSV writes the table as RFC 4180 CSV (header row first), for
// machine-readable experiment output.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// PowerFit fits y = a·x^b by least squares on log-log values and returns
// the exponent b and the coefficient a. All inputs must be positive.
func PowerFit(xs, ys []float64) (a, b float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: need >= 2 equal-length samples")
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, fmt.Errorf("stats: power fit needs positive samples")
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("stats: degenerate x values")
	}
	b = (n*sxy - sx*sy) / den
	a = math.Exp((sy - b*sx) / n)
	return a, b, nil
}

// Summary holds basic descriptive statistics.
type Summary struct {
	// N is the sample count.
	N int
	// Min, Max, Mean, Median describe the sample.
	Min, Max, Mean, Median float64
}

// Summarize computes a Summary of the samples.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		Median: med,
	}
}

// CountQuantiles returns the nearest-rank quantiles, at the given
// probabilities (each in [0, 1]; 0 is the minimum, 1 the maximum), of a
// sample of non-negative integers held as a histogram: counts[v] samples
// equal v. An empty sample yields all zeros.
func CountQuantiles(counts []int, qs ...float64) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(qs))
	if total == 0 {
		return out
	}
	for i, q := range qs {
		r := min(max(int(math.Ceil(q*float64(total)))-1, 0), total-1)
		v, below := 0, counts[0]
		for below <= r {
			v++
			below += counts[v]
		}
		out[i] = float64(v)
	}
	return out
}
