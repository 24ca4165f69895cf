package clt

import (
	"fmt"
	"testing"

	"meshroute/internal/grid"
	"meshroute/internal/workload"
)

// BenchmarkRoute routes a random permutation with the Section 6 algorithm
// at each supported size.
func BenchmarkRoute(b *testing.B) {
	for _, n := range []int{27, 81, 243} {
		perm := workload.Random(grid.NewSquareMesh(n), 7)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			var schedule int
			for i := 0; i < b.N; i++ {
				r, err := New(Config{N: n})
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Route(perm)
				if err != nil {
					b.Fatal(err)
				}
				schedule = res.TimeFormula
			}
			b.ReportMetric(float64(schedule)/float64(n), "schedule/n")
		})
	}
}

func sizeName(n int) string { return fmt.Sprintf("n%d", n) }
