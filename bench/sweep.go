package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"meshroute/internal/fleet"
	"meshroute/internal/grid"
	"meshroute/internal/scenario"
	"meshroute/internal/service"
	"meshroute/internal/workload"
)

// The two sweep workloads: a closed loop of one client per core, each
// submitting small single-spec jobs to an in-process meshrouted
// (service.New behind a real 127.0.0.1 listener) and taking every job
// from POST through the drained event stream to a `done` status.
// sweep-fleet sends the identical job list through a coordinator and two
// loopback fleet workers, so the difference between the two workloads is
// the fleet hop. The loop runs in slices: every sweepSlice seconds the
// clients finish the job they have and wait while the reference spin
// measures the host's clock (clock.go), so a slice is to the sweeps what an
// operation is to the single-run workloads.

const (
	spanJob       = "job"
	spanSubmit    = "service.submit"
	spanStream    = "service.stream"
	spanStatus    = "service.status"
	spanServerJob = "service.job"
	spanQueueWait = "service.queue_wait"
	spanServerRun = "service.run"
)

// sweepRouters cycle over the job list; k=4 because zigzag at k=2 strands
// some random permutations for their whole step budget (README, Findings).
var sweepRouters = []string{"dimorder", "zigzag", "thm15"}

// jobStatus is the wire form of a job as a client sees it. Stats stays
// raw so repeated specs can be compared byte for byte.
type jobStatus struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Deduped  bool            `json:"deduped"`
	Stats    json.RawMessage `json:"stats"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
}

func (s *jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

// jobRecord is what the client measured for one job.
type jobRecord struct {
	ran, traced            bool
	slice                  int // index into sweepRunner.slices
	start                  time.Time
	submit, stream, status time.Duration
	events, eventBytes     int
	refused429             int
	final                  jobStatus
	err                    error
}

func (j *jobRecord) latency() time.Duration { return j.submit + j.stream + j.status }

// sweepSlice is one stretch of closed loop between two reference spins.
type sweepSlice struct {
	elapsed       float64 // seconds from its start to the end of its last job
	before, after float64 // the spins around it
	traced        bool
}

// scale converts a duration measured inside the slice to seconds at full
// clock.
func (sl sweepSlice) scale() float64 { return calibrated(time.Second, sl.before, sl.after) }

// cellTimer times POST /v1/cells on the fleet workers while a traced
// phase is running.
type cellTimer struct {
	on atomic.Bool
	mu sync.Mutex
	ms []float64
}

func (c *cellTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !c.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t)
		c.mu.Lock()
		c.ms = append(c.ms, d.Seconds()*1e3)
		c.mu.Unlock()
	})
}

type sweepRunner struct {
	withFleet bool
	n         int                 // job mesh side
	bodies    [][]byte            // job i's spec JSON
	seeds     []int64             // job i's permutation seed
	samples   map[int]fleet.Stats // direct results of the verified sample
	warm      string

	base    string
	svc     *service.Server
	coord   *fleet.Coordinator
	hop     *http.Transport // the coordinator's connections to its workers
	servers []*http.Server
	served  []chan struct{}
	cells   cellTimer
	slices  []sweepSlice

	// The service retains finished jobs, so the process grows with every
	// job and a faster run would end with a larger resident set. The peak
	// is therefore read when job rssJob is handed out; a run that never
	// gets that far reports the process's peak at its end.
	rssJob int
	rssMB  float64
}

func (r *sweepRunner) warmDigest() string { return r.warm }

// serve puts a handler behind a loopback listener.
func (r *sweepRunner) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) //nolint:errcheck // always ErrServerClosed, from close()
		close(done)
	}()
	r.servers, r.served = append(r.servers, srv), append(r.served, done)
	return "http://" + ln.Addr().String(), nil
}

func (r *sweepRunner) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r.svc != nil {
		r.svc.Shutdown(ctx) //nolint:errcheck // always nil
	}
	if r.hop != nil {
		r.hop.CloseIdleConnections()
	}
	for i, srv := range r.servers {
		srv.Shutdown(ctx) //nolint:errcheck // on timeout the listener is closed anyway
		<-r.served[i]
	}
}

// setupSweep generates the job list from the seed, verifies a seeded
// sample of it by running those specs directly through scenario.Runner,
// and starts the servers.
func setupSweep(e *env, withFleet bool) (runner, error) {
	r := &sweepRunner{withFleet: withFleet, n: e.sz.sweepN, rssJob: e.sz.sweepRSSJob, samples: map[int]fleet.Stats{}}
	rng := rand.New(rand.NewSource(e.seed))
	distinct := 0
	for i := 0; i < e.sz.sweepJobs; i++ {
		if i%4 == 3 {
			// Every 4th job repeats the spec sent 3 jobs earlier: by then
			// that job is either still running (singleflight) or cached.
			r.bodies, r.seeds = append(r.bodies, r.bodies[i-3]), append(r.seeds, r.seeds[i-3])
			continue
		}
		spec := scenario.Spec{
			Name: fmt.Sprintf("job-%d", i), N: e.sz.sweepN, K: 4, Router: sweepRouters[distinct%len(sweepRouters)],
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: rng.Int63n(1 << 31)},
		}
		distinct++
		body, err := spec.JSON()
		if err != nil {
			return nil, err
		}
		r.bodies, r.seeds = append(r.bodies, body), append(r.seeds, spec.Workload.Seed)
	}

	// The sample comes from the head of the list, which every run gets
	// through however short it is.
	head := min(len(r.bodies), 16*e.sz.sweepSample)
	h := fnv.New64a()
	for _, i := range rng.Perm(head)[:min(head, e.sz.sweepSample)] {
		spec, err := scenario.Parse(r.bodies[i])
		if err != nil {
			return nil, err
		}
		var direct scenario.Runner
		res, err := direct.Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		st := fleet.ToStats(res.Stats)
		if res.Err != nil || !st.Done || st.Delivered != st.Total {
			return nil, fmt.Errorf("sample job %d: delivered %d of %d (%v)", i, st.Delivered, st.Total, res.Err)
		}
		// Job statistics carry no hop count; packet_hops_per_s takes it from
		// the job's permutation, which this ties to the engine's own count.
		if want := r.jobHops(i); res.Net.Metrics.TotalHops != want {
			return nil, fmt.Errorf("sample job %d: engine counted %d hops, the permutation's distances sum to %d", i, res.Net.Metrics.TotalHops, want)
		}
		r.samples[i] = st
		fmt.Fprintf(h, "%d:%+v;", i, st)
	}
	r.warm = fmt.Sprintf("%016x", h.Sum64())

	cfg := service.Config{}
	if withFleet {
		r.hop = &http.Transport{}
		// Nothing heartbeats here, so registrations must not age out.
		r.coord = fleet.NewCoordinator(fleet.Config{Client: &http.Client{Transport: r.hop}, HeartbeatTimeout: 24 * time.Hour})
		for w := 0; w < 2; w++ {
			url, err := r.serve(r.cells.wrap(fleet.NewWorker(fleet.WorkerConfig{}).Handler()))
			if err != nil {
				r.close()
				return nil, err
			}
			r.coord.Register(url)
		}
		cfg.Fleet = r.coord
	}
	r.svc = service.New(cfg)
	base, err := r.serve(r.svc.Handler())
	if err != nil {
		r.close()
		return nil, err
	}
	r.base = base
	return r, nil
}

// jobHops is the link traversals job i's result stands for: its three
// routers are minimal and every job must deliver every packet.
func (r *sweepRunner) jobHops(i int) int {
	topo := grid.NewSquareMesh(r.n)
	return pathHops(topo, workload.Random(topo, r.seeds[i]))
}

// doJob takes one job from POST to terminal status the way a client does.
func (r *sweepRunner) doJob(client *http.Client, body []byte) (rec jobRecord) {
	rec.ran, rec.start = true, time.Now()
	call := func(method, url string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}

	// Submit; a refusal gets the client's one retry.
	var code int
	var data []byte
	for attempt := 0; attempt < 2; attempt++ {
		code, data, rec.err = call(http.MethodPost, r.base+"/v1/jobs", body)
		if rec.err == nil && code == http.StatusAccepted {
			break
		}
		if code == http.StatusTooManyRequests {
			rec.refused429++
		}
	}
	rec.submit = time.Since(rec.start)
	if rec.err != nil {
		return rec
	}
	if code != http.StatusAccepted {
		rec.err = fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(data))
		return rec
	}
	var accepted jobStatus
	if rec.err = json.Unmarshal(data, &accepted); rec.err != nil {
		return rec
	}

	// Follow the event stream until the job retires.
	t := time.Now()
	code, data, rec.err = call(http.MethodGet, r.base+"/v1/jobs/"+accepted.ID+"/events", nil)
	rec.stream = time.Since(t)
	if rec.err == nil && code != http.StatusOK {
		rec.err = fmt.Errorf("events: status %d", code)
	}
	if rec.err != nil {
		return rec
	}
	rec.events, rec.eventBytes = bytes.Count(data, []byte{'\n'}), len(data)

	// A job coalesced onto another's execution shares its stream, which
	// closes just before the follower is retired; poll briefly for that.
	t = time.Now()
	for try := 0; try < 200; try++ {
		code, data, rec.err = call(http.MethodGet, r.base+"/v1/jobs/"+accepted.ID, nil)
		if rec.err == nil && code != http.StatusOK {
			rec.err = fmt.Errorf("status: status %d", code)
		}
		if rec.err == nil {
			rec.err = json.Unmarshal(data, &rec.final)
		}
		if rec.err != nil || rec.final.terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	rec.status = time.Since(t)
	return rec
}

// phase runs the closed loop, slice by slice, until the deadline or the
// end of the job list.
func (r *sweepRunner) phase(next *atomic.Int64, recs []jobRecord, seconds, sliceSeconds float64, trace bool) {
	r.cells.on.Store(trace)
	debug.FreeOSMemory() // as measureOps does before an operation
	resetPeakRSS()
	// One connection per client: POST, stream and status follow each other
	// on it, in every slice.
	clients := make([]*http.Client, runtime.GOMAXPROCS(0))
	for c := range clients {
		tr := &http.Transport{MaxConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		clients[c] = &http.Client{Transport: tr}
	}
	start := time.Now()
	after := spin()
	for time.Since(start).Seconds() < seconds && int(next.Load()) < len(r.bodies) {
		id, sl := len(r.slices), sweepSlice{before: after, traced: trace}
		t0 := time.Now()
		var wg sync.WaitGroup
		for _, client := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0).Seconds() < sliceSeconds {
					i := int(next.Add(1)) - 1
					if i >= len(r.bodies) {
						return
					}
					if i == r.rssJob {
						r.rssMB = peakRSSMB() // one client gets this index; wg.Wait publishes it
					}
					recs[i] = r.doJob(client, r.bodies[i])
					recs[i].traced, recs[i].slice = trace, id
				}
			}()
		}
		wg.Wait()
		sl.elapsed = time.Since(t0).Seconds()
		after = spin()
		sl.after = after
		r.slices = append(r.slices, sl)
	}
}

func (r *sweepRunner) measure(e *env) error {
	recs := make([]jobRecord, len(r.bodies))
	var next atomic.Int64
	// A traced run measures an untraced half first, so that it can say
	// what tracing costs; an untraced run is one phase.
	if e.trace {
		r.phase(&next, recs, e.seconds/2, e.sz.sweepSlice, false)
		// Client, servers and workers are one process, so the profile of
		// the traced half covers the whole request path.
		if err := cpuByLayer(e.cpu, func() { r.phase(&next, recs, e.seconds/2, e.sz.sweepSlice, true) }); err != nil {
			return err
		}
	} else {
		r.phase(&next, recs, e.seconds, e.sz.sweepSlice, false)
	}

	// Check every job, and collect the timings of the ones that are right.
	var submit, stream, status, queueWait, run, remoteRun, latency []float64
	var hits, dedups, refused, events, eventBytes int
	// Per slice: its right jobs' latencies in seconds, and their hops.
	sliceLat, sliceHops := make([][]float64, len(r.slices)), make([]int, len(r.slices))
	right := make([]bool, len(recs)) // job i completed and passed its own checks
	for i := range recs {
		j := &recs[i]
		if !j.ran {
			continue
		}
		e.out.attempted++
		refused += j.refused429
		var st fleet.Stats
		switch {
		case j.err != nil:
			e.out.fail("job %d: %v", i, j.err)
			continue
		case j.final.State != "done":
			e.out.fail("job %d ended %s: %s", i, j.final.State, j.final.Error)
			continue
		case json.Unmarshal(j.final.Stats, &st) != nil || !st.Done || st.Delivered != st.Total || st.Total == 0:
			e.out.fail("job %d: delivered %d of %d packets", i, st.Delivered, st.Total)
			continue
		}
		right[i] = true
		if want, ok := r.samples[i]; ok {
			e.out.check(st == want, "job %d: service says %+v, a direct run of the same spec %+v", i, st, want)
		}
		if i%4 == 3 && right[i-3] {
			e.out.check(bytes.Equal(j.final.Stats, recs[i-3].final.Stats), "job %d repeats job %d's spec but got different statistics", i, i-3)
		}
		latency = append(latency, j.latency().Seconds()*1e3)
		sliceLat[j.slice] = append(sliceLat[j.slice], j.latency().Seconds())
		if !j.traced {
			sliceHops[j.slice] += r.jobHops(i)
		}
		submit = append(submit, j.submit.Seconds()*1e3)
		stream = append(stream, j.stream.Seconds()*1e3)
		status = append(status, j.status.Seconds()*1e3)
		events += j.events
		eventBytes += j.eventBytes
		switch {
		case j.final.CacheHit:
			hits++
		case j.final.Deduped:
			dedups++
		}
		if f := j.final; f.Started != nil && f.Finished != nil {
			runMs := f.Finished.Sub(*f.Started).Seconds() * 1e3
			queueWait = append(queueWait, f.Started.Sub(f.Created).Seconds()*1e3)
			run = append(run, runMs)
			if j.traced {
				if !f.CacheHit && !f.Deduped {
					remoteRun = append(remoteRun, runMs)
				}
				r.spans(e.tr, j)
			}
		}
	}
	done := len(latency)
	if done == 0 {
		return fmt.Errorf("no job completed")
	}
	e.pin("samples_digest", r.warm)
	// Each slice gives one job latency (the median of its jobs) and one
	// throughput, on the clock its two spins calibrate; a traced slice
	// gives only the latency, for the tracing overhead.
	var plainLat, tracedLat, jobsPerS, hopsPerS []float64
	for s, sl := range r.slices {
		switch {
		case len(sliceLat[s]) == 0:
		case sl.traced:
			tracedLat = append(tracedLat, median(sliceLat[s])*sl.scale())
		default:
			plainLat = append(plainLat, median(sliceLat[s])*sl.scale())
			jobsPerS = append(jobsPerS, float64(len(sliceLat[s]))/(sl.elapsed*sl.scale()))
			hopsPerS = append(hopsPerS, float64(sliceHops[s])/(sl.elapsed*sl.scale()))
		}
	}
	if len(plainLat) == 0 {
		return fmt.Errorf("no untraced job completed")
	}
	e.out.e2e["wall_s"] = steady(plainLat)
	e.out.e2e["jobs_per_s"] = steadyRate(jobsPerS)
	e.out.e2e["packet_hops_per_s"] = steadyRate(hopsPerS)
	if r.rssMB > 0 {
		e.out.e2e["peak_rss_mb"] = r.rssMB
	}
	if !e.trace {
		return nil
	}

	L := e.out.layer
	shares(e.cpu, L)
	if len(tracedLat) > 0 {
		L["trace.overhead_share"] = steady(tracedLat)/steady(plainLat) - 1
	}
	L["service.submit_ms"] = median(submit)
	L["service.stream_ms"] = median(stream)
	L["service.status_ms"] = median(status)
	L["service.queue_wait_ms"] = median(queueWait)
	L["service.run_ms"] = median(run)
	L["service.job_p99_ms"] = percentile(latency, 0.99)
	L["service.cache_hit_share"] = float64(hits) / float64(done)
	L["service.dedup_share"] = float64(dedups) / float64(done)
	L["service.refused_429"] = float64(refused)
	L["service.events_per_job"] = float64(events) / float64(done)
	if events > 0 {
		L["obs.bytes_per_step"] = float64(eventBytes) / float64(events)
	}
	if r.withFleet {
		tot := r.coord.Stats()
		L["fleet.dispatches"] = float64(tot.Dispatches)
		L["fleet.retries"] = float64(tot.Retries)
		L["fleet.cells_failed"] = float64(tot.CellsFailed)
		e.out.check(tot.CellsFailed == 0 && tot.Dispatches > 0, "fleet dispatched %d cells, %d failed", tot.Dispatches, tot.CellsFailed)
		r.cells.mu.Lock()
		L["fleet.cell_ms"] = median(r.cells.ms)
		r.cells.mu.Unlock()
		// What the coordinator's run took beyond the worker's handling of
		// the cell: the loopback hop, the NDJSON parse, the replay into
		// the shared counters.
		L["fleet.hop_overhead_ms"] = median(remoteRun) - L["fleet.cell_ms"]
	}

	// The request path's scenario-layer costs, on the sample specs.
	var parse, fingerprint, build []float64
	var makespan, maxQueue, delivered, steps int
	for i, st := range r.samples {
		t0 := time.Now()
		spec, err := scenario.Parse(r.bodies[i])
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := spec.Fingerprint(); err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := spec.Build(); err != nil {
			return err
		}
		t3 := time.Now()
		parse = append(parse, float64(t1.Sub(t0).Nanoseconds())/1e3)
		fingerprint = append(fingerprint, float64(t2.Sub(t1).Nanoseconds())/1e3)
		build = append(build, t3.Sub(t2).Seconds()*1e3)
		makespan, maxQueue = max(makespan, st.Makespan), max(maxQueue, st.MaxQueue)
		delivered, steps = delivered+st.Delivered, steps+st.Steps
	}
	L["scenario.parse_us"] = median(parse)
	L["scenario.fingerprint_us"] = median(fingerprint)
	L["scenario.build_ms"] = median(build)
	L["routers.makespan_steps"] = float64(makespan)
	L["routers.max_queue"] = float64(maxQueue)
	L["routers.throughput_pkts_per_step"] = float64(delivered) / float64(steps)
	return nil
}

// spans records one traced job twice: as the client saw it, and as the
// server's timestamps describe it.
func (r *sweepRunner) spans(tr *tracer, j *jobRecord) {
	id := j.final.ID
	root := tr.add(id, spanJob, 0, j.start, j.latency())
	tr.add(id, spanSubmit, root, j.start, j.submit)
	tr.add(id, spanStream, root, j.start.Add(j.submit), j.stream)
	tr.add(id, spanStatus, root, j.start.Add(j.submit+j.stream), j.status)
	f := j.final
	srv := tr.add(id, spanServerJob, 0, f.Created, f.Finished.Sub(f.Created))
	tr.add(id, spanQueueWait, srv, f.Created, f.Started.Sub(f.Created))
	tr.add(id, spanServerRun, srv, *f.Started, f.Finished.Sub(*f.Started))
}
