package sim

import (
	"fmt"

	"meshroute/internal/grid"
	"meshroute/internal/obs"
)

// ExampleNetwork_SetMetricsSink attaches an in-memory metrics sink to a
// run and reads the per-step time series back: the number of samples, the
// delivery curve's final value, and the peak single-queue occupancy
// (peakQueue, in sink_test.go, is the largest sampled MaxQueue).
func ExampleNetwork_SetMetricsSink() {
	const n = 4
	net := MustNew(Config{Topo: grid.NewSquareMesh(n), K: 2, Queues: CentralQueue, RequireMinimal: true})
	for x := 0; x < n; x++ {
		net.MustPlace(net.NewPacket(net.Topo.ID(grid.XY(x, 0)), net.Topo.ID(grid.XY(n-1-x, n-1))))
	}

	sink := &obs.Records{}
	net.SetMetricsSink(sink)
	if _, err := net.Run(nil, greedyXY{}, 100, nil); err != nil {
		fmt.Println(err)
		return
	}

	last := sink.Steps[len(sink.Steps)-1]
	fmt.Printf("samples: %d\n", len(sink.Steps))
	fmt.Printf("delivered: %d of %d\n", last.DeliveredTotal, net.TotalPackets())
	fmt.Printf("peak queue: %d\n", peakQueue(sink))
	// Output:
	// samples: 8
	// delivered: 4 of 4
	// peak queue: 2
}
