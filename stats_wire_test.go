package meshroute

import (
	"encoding/json"
	"fmt"
	"testing"
)

// TestRouteStatsWireGolden pins RouteStats's two encodings that leave the
// process. The JSON is the service API's and the fleet cell protocol's
// stats object: a dropped or renamed tag changes what every client reads.
// The %+v form is what the repository benchmark hashes into its
// samples_digest. The literals are the encodings of the wire stats type
// the fleet package declared before RouteStats became that type.
func TestRouteStatsWireGolden(t *testing.T) {
	cases := []struct {
		name       string
		st         RouteStats
		json, plus string
	}{
		{
			name: "fully populated",
			st: RouteStats{
				Makespan: 41, Steps: 43, Done: true, Delivered: 70, Total: 72, MaxQueue: 5, AvgDelay: 12.25, FaultDrops: 3,
				Online: true, Offered: 80, Admitted: 72, Refused: 9, Dropped: 8, Throughput: 1.625,
				DelayP50: 11, DelayP95: 20.5, DelayP99: 23.75,
				Analyzed: true, Congestion: 7, Dilation: 18, CDRatio: 1.64,
			},
			json: `{"makespan":41,"steps":43,"done":true,"delivered":70,"total":72,"max_queue":5,"avg_delay":12.25,"fault_drops":3,"online":true,"offered":80,"admitted":72,"refused":9,"dropped":8,"throughput":1.625,"delay_p50":11,"delay_p95":20.5,"delay_p99":23.75,"analyzed":true,"congestion":7,"dilation":18,"cd_ratio":1.64}`,
			plus: `{Makespan:41 Steps:43 Done:true Delivered:70 Total:72 MaxQueue:5 AvgDelay:12.25 FaultDrops:3 Online:true Offered:80 Admitted:72 Refused:9 Dropped:8 Throughput:1.625 DelayP50:11 DelayP95:20.5 DelayP99:23.75 Analyzed:true Congestion:7 Dilation:18 CDRatio:1.64}`,
		},
		{
			name: "static only",
			st:   RouteStats{Makespan: 12, Steps: 12, Done: true, Delivered: 72, Total: 72, MaxQueue: 2, AvgDelay: 6.5},
			json: `{"makespan":12,"steps":12,"done":true,"delivered":72,"total":72,"max_queue":2,"avg_delay":6.5,"fault_drops":0}`,
			plus: `{Makespan:12 Steps:12 Done:true Delivered:72 Total:72 MaxQueue:2 AvgDelay:6.5 FaultDrops:0 Online:false Offered:0 Admitted:0 Refused:0 Dropped:0 Throughput:0 DelayP50:0 DelayP95:0 DelayP99:0 Analyzed:false Congestion:0 Dilation:0 CDRatio:0}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.st)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.json {
				t.Errorf("JSON\n got %s\nwant %s", got, tc.json)
			}
			var back RouteStats
			if err := json.Unmarshal(got, &back); err != nil || back != tc.st {
				t.Errorf("JSON round trip: %+v (%v), want %+v", back, err, tc.st)
			}
			if plus := fmt.Sprintf("%+v", tc.st); plus != tc.plus {
				t.Errorf("%%+v\n got %s\nwant %s", plus, tc.plus)
			}
		})
	}
}
