// Package par provides the small parallel-execution helpers used by the
// experiment harness: every simulation cell (one network, one router, one
// workload) is fully independent, so parameter sweeps fan out across a
// bounded worker pool and collect results in input order, keeping the
// printed tables deterministic while using all cores.
//
// This is cell-level parallelism — whole networks run concurrently and
// never share state, so no PacketID or node index ever crosses a cell
// boundary and workers need no synchronization beyond the pool itself.
// The engine runs each step serially; parallel work is always whole cells,
// here, in the service's job pool and across the fleet (docs/SCALING.md).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(i) for i in [0, n) on a bounded worker pool and returns the
// results in input order. The first error (lowest index) wins; remaining
// work still runs to completion (cells are cheap and independent).
//
// Workers claim indices from a shared atomic counter in small contiguous
// chunks, so dispatch is one atomic add per chunk rather than a
// channel rendezvous per item — short cells no longer serialize on a
// single dispatcher goroutine. Chunks are small enough (at most 1/8 of a
// worker's even share) that an unlucky run of slow cells in one chunk
// cannot idle the other workers for long.
func Map[T any](n int, workers int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					out[i], errs[i] = fn(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ForEach is Map without results.
func ForEach(n int, workers int, fn func(i int) error) error {
	_, err := Map(n, workers, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
