package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// newTestServer builds a Server and registers a full drain as cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// do runs one request against the server's handler.
func do(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// getMetrics decodes GET /metrics.
func getMetrics(t *testing.T, s *Server) Metrics {
	t.Helper()
	var m Metrics
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/metrics", nil).Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// submitSpec POSTs one spec and decodes the accepted job status.
func submitSpec(t *testing.T, s *Server, spec *scenario.Spec) JobStatus {
	t.Helper()
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return submitJSON(t, s, data)
}

// submitJSON POSTs a spec's JSON bytes and decodes the accepted job status.
func submitJSON(t *testing.T, s *Server, data []byte) JobStatus {
	t.Helper()
	w := do(t, s, http.MethodPost, "/v1/jobs", data)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone waits for a job to retire and asserts the expected state.
func waitDone(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, ok := s.WaitJob(ctx, id)
	if !ok {
		t.Fatalf("job %s unknown", id)
	}
	if st.State != want {
		t.Fatalf("job %s state %s (err %q), want %s", id, st.State, st.Error, want)
	}
	return st
}

// gateJobs holds every job at its start until gate is closed; started
// receives each held job's id, with room for every job a test starts so
// that a job the test does not wait for still reaches the gate.
func gateJobs(s *Server) (started chan string, gate chan struct{}) {
	started, gate = make(chan string, 8), make(chan struct{})
	s.testJobStart = func(j *job) {
		started <- j.id()
		<-gate
	}
	return started, gate
}

func quickSpec(name string, seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:     name,
		N:        6,
		K:        2,
		Router:   "dimorder",
		Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: seed},
	}
}

// TestCacheHitSkipsSimulation resubmits an identical spec and checks it
// is served from the fingerprint cache: cache_hit set, identical stats,
// no additional engine steps, and the /metrics hit counter moving.
func TestCacheHitSkipsSimulation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	spec := quickSpec("cached", 3)

	first := submitSpec(t, s, spec)
	if first.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	done := waitDone(t, s, first.ID, StateDone)
	stepsAfterFirst := s.Counters().Totals().Steps

	second := submitSpec(t, s, spec)
	if !second.CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	if second.State != StateDone {
		t.Fatalf("cache-hit job state %s, want done at admission", second.State)
	}
	if !reflect.DeepEqual(second.Stats, done.Stats) {
		t.Fatalf("cached stats %+v differ from original %+v", second.Stats, done.Stats)
	}
	if got := s.Counters().Totals().Steps; got != stepsAfterFirst {
		t.Fatalf("cache hit ran the engine: steps %d -> %d", stepsAfterFirst, got)
	}

	m := getMetrics(t, s)
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", m.Cache.Hits, m.Cache.Misses)
	}
	if m.Cache.HitRatio != 0.5 {
		t.Fatalf("hit ratio %v, want 0.5", m.Cache.HitRatio)
	}
	if m.Jobs[StateDone] != 2 {
		t.Fatalf("jobs done=%d, want 2", m.Jobs[StateDone])
	}
	if m.Engine.StepsTotal != stepsAfterFirst {
		t.Fatalf("metrics steps_total %d, want %d", m.Engine.StepsTotal, stepsAfterFirst)
	}
}

// TestSweepSubmission submits a JSON array and checks each element
// becomes its own job with its own result.
func TestSweepSubmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	sweep := []json.RawMessage{}
	for i := int64(1); i <= 3; i++ {
		data, err := quickSpec(fmt.Sprintf("cell-%d", i), i).JSON()
		if err != nil {
			t.Fatal(err)
		}
		sweep = append(sweep, data)
	}
	body, err := json.Marshal(sweep)
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s, http.MethodPost, "/v1/jobs", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 3 {
		t.Fatalf("sweep admitted %d jobs, want 3", len(resp.Jobs))
	}
	for _, j := range resp.Jobs {
		st := waitDone(t, s, j.ID, StateDone)
		if st.Stats == nil || !st.Stats.Done {
			t.Fatalf("sweep job %s (%s) incomplete: %+v", j.ID, j.Name, st.Stats)
		}
	}
}

// TestQueueFullBackpressure fills the worker and the queue and checks the
// next submission is refused with 429 without disturbing admitted work.
func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started, gate := gateJobs(s)

	a := submitSpec(t, s, quickSpec("a", 1))
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job a never started")
	}
	b := submitSpec(t, s, quickSpec("b", 2))

	data, err := quickSpec("c", 3).JSON()
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s, http.MethodPost, "/v1/jobs", data)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: %d %s, want 429", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(w.Body.String(), "queue full") {
		t.Fatalf("429 body %q does not explain the backpressure", w.Body)
	}

	// A sweep needing more slots than remain is refused whole.
	sweepBody := []byte("[" + string(data) + "," + string(data) + "]")
	if w := do(t, s, http.MethodPost, "/v1/jobs", sweepBody); w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow sweep: %d, want 429", w.Code)
	}

	// Release the worker: both admitted jobs must complete untouched by
	// the refusals.
	close(gate)
	for _, id := range []string{a.ID, b.ID} {
		st := waitDone(t, s, id, StateDone)
		if st.Stats == nil || !st.Stats.Done {
			t.Fatalf("job %s incomplete after release", id)
		}
	}
}

// TestDeleteQueuedJob cancels a job that is still waiting in the queue.
func TestDeleteQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	started, gate := gateJobs(s)
	a := submitSpec(t, s, quickSpec("a", 1))
	<-started
	b := submitSpec(t, s, quickSpec("b", 2))

	w := do(t, s, http.MethodDelete, "/v1/jobs/"+b.ID, nil)
	if w.Code != http.StatusAccepted {
		t.Fatalf("DELETE queued: %d %s", w.Code, w.Body)
	}
	st := waitDone(t, s, b.ID, StateCanceled)
	if st.Stats != nil {
		t.Fatalf("never-started job has stats: %+v", st.Stats)
	}
	if !strings.Contains(st.Error, "before the job started") {
		t.Fatalf("canceled-queued error %q", st.Error)
	}

	close(gate)
	waitDone(t, s, a.ID, StateDone)

	// Deleting a terminal job is a conflict.
	if w := do(t, s, http.MethodDelete, "/v1/jobs/"+a.ID, nil); w.Code != http.StatusConflict {
		t.Fatalf("DELETE terminal: %d, want 409", w.Code)
	}
}

// TestDeleteRunningJob cancels mid-flight and checks the job retires as
// canceled through the Runner's CanceledError, diagnostics included.
func TestDeleteRunningJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	started, gate := gateJobs(s)
	a := submitSpec(t, s, quickSpec("a", 1))
	<-started
	if w := do(t, s, http.MethodDelete, "/v1/jobs/"+a.ID, nil); w.Code != http.StatusAccepted {
		t.Fatalf("DELETE running: %d %s", w.Code, w.Body)
	}
	close(gate)
	st := waitDone(t, s, a.ID, StateCanceled)
	if st.Stats == nil {
		t.Fatal("canceled running job lost its partial stats")
	}
	if st.Diagnostics == "" {
		t.Fatal("canceled running job has no diagnostics")
	}
}

// TestEventsStreamReplay checks the NDJSON stream of a finished job
// parses as the documented metrics wire format with one line per step.
func TestEventsStreamReplay(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	st := submitSpec(t, s, quickSpec("events", 5))
	final := waitDone(t, s, st.ID, StateDone)

	w := do(t, s, http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET events: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	rec, err := obs.ReadJSONLRecords(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	steps, events := rec.Steps, rec.Events
	if len(steps) != final.Stats.Steps {
		t.Fatalf("streamed %d step samples over %d steps", len(steps), final.Stats.Steps)
	}
	if len(events) != 0 {
		t.Fatalf("faultless run streamed %d fault events", len(events))
	}
	if got := final.Events; got != len(steps) {
		t.Fatalf("status reports %d events, stream carries %d", got, len(steps))
	}
}

// readEvents reads a job's events from byte off to their end, the way
// handleEvents does.
func readEvents(ev events, off int) []byte {
	var got []byte
	for {
		chunk, ok := ev.next(context.Background(), off)
		if !ok {
			return got
		}
		got = append(got, chunk...)
		off += len(chunk)
	}
}

// TestStreamFollowersSeeEveryByte has followers attach to a stream at
// different points while records are appended, a fleet block committed,
// the log sealed at close and the retired record's copy of it packed
// while they may still be reading; each must end with exactly the log's
// bytes, which are an unshared obs.EventLog's for the same records. One
// more follower reads the steps before the commit off the stream and the
// rest from the packed record, and one reads only the packed record.
func TestStreamFollowersSeeEveryByte(t *testing.T) {
	const steps, limit, followers = 200, 230, 4
	s, want := newStream(limit), obs.NewEventLog(limit)
	cell := obs.NewEventLog(40)
	for i := 1; i <= 40; i++ {
		cell.Step(obs.StepSample{Step: i, Delivered: 1})
	}

	got := make([][]byte, followers)
	attach := make([]chan struct{}, followers)
	var wg sync.WaitGroup
	for f := range attach {
		attach[f] = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-attach[f]
			got[f] = readEvents(s, 0)
		}()
	}
	for i := 1; i <= steps; i++ {
		if i%(steps/followers) == 1 {
			close(attach[i/(steps/followers)])
		}
		for _, k := range []obs.Sink{s, want} {
			k.Step(obs.StepSample{Step: i, Moves: 3 * i, InFlight: steps - i})
		}
	}
	head, _ := s.next(context.Background(), 0)
	s.commit(cell.Bytes(), cell.Lines(), 2)
	want.Commit(cell.Bytes(), cell.Lines(), 2)
	s.close()
	// The job retires: its record takes the sealed log, which its worker
	// packs.
	r := &record{seq: 1, log: *s.log}
	(&Server{jobs: []*record{r}}).pack(r)
	wg.Wait()
	straddled := append(head, readEvents(sealed{r.log}, len(head))...)
	late := readEvents(sealed{r.log}, 0)

	if lines, dropped := s.counts(); lines != limit || dropped != steps+40-limit+2 {
		t.Fatalf("stream kept %d records and dropped %d, want %d and %d", lines, dropped, limit, steps+40-limit+2)
	}
	if z, raw := r.log.Retained(), r.log.Len(); z >= raw {
		t.Fatalf("the packed log holds %d bytes for %d: not compressed", z, raw)
	}
	for f := range got {
		if !bytes.Equal(got[f], want.Bytes()) {
			t.Errorf("follower %d read %d bytes, want the log's %d", f, len(got[f]), len(want.Bytes()))
		}
	}
	if !bytes.Equal(straddled, want.Bytes()) {
		t.Errorf("the follower across the swap read %d bytes, want the log's %d", len(straddled), len(want.Bytes()))
	}
	if !bytes.Equal(late, want.Bytes()) {
		t.Errorf("the follower after the swap read %d bytes, want the log's %d", len(late), len(want.Bytes()))
	}
}

// TestEventsStreamFollow consumes the stream over real HTTP while the job
// is still running and checks the response ends exactly when the job
// retires, having delivered every line.
func TestEventsStreamFollow(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	started, gate := gateJobs(s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := submitSpec(t, s, quickSpec("follow", 6))
	<-started

	type streamed struct {
		lines int
		err   error
	}
	got := make(chan streamed, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			got <- streamed{err: err}
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		n := 0
		for sc.Scan() {
			n++
		}
		got <- streamed{lines: n, err: sc.Err()}
	}()

	time.Sleep(20 * time.Millisecond) // let the follower attach mid-run
	close(gate)
	final := waitDone(t, s, st.ID, StateDone)
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.lines != final.Stats.Steps {
		t.Fatalf("follower saw %d lines over %d steps", res.lines, final.Stats.Steps)
	}
}

// TestSubmitRejections covers the 400 family: output-file fields, unknown
// JSON fields, invalid specs, and the per-job step-budget cap.
func TestSubmitRejections(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, MaxJobSteps: 500})
	cases := map[string]string{
		"output path": `{"n":6,"k":2,"router":"dimorder","workload":{"kind":"transpose"},"metrics_out":"/tmp/x.jsonl"}`,
		"trace path":  `{"n":6,"k":2,"router":"dimorder","workload":{"kind":"transpose"},"trace_out":"/tmp/t.jsonl"}`,
		"unknown key": `{"n":6,"k":2,"router":"dimorder","workload":{"kind":"transpose"},"typo_field":1}`,
		"invalid":     `{"n":6,"k":0,"router":"dimorder","workload":{"kind":"transpose"}}`,
		"over budget": `{"n":6,"k":2,"router":"dimorder","workload":{"kind":"transpose"},"max_steps":501}`,
		"not json":    `hello`,
	}
	for name, body := range cases {
		if w := do(t, s, http.MethodPost, "/v1/jobs", []byte(body)); w.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, w.Code, w.Body)
		}
	}
	// The automatic budget is also checked against the cap: n=16,k=1 gives
	// 200*(256+32) steps, far past 500.
	auto := `{"n":16,"k":1,"router":"thm15","workload":{"kind":"transpose"}}`
	if w := do(t, s, http.MethodPost, "/v1/jobs", []byte(auto)); w.Code != http.StatusBadRequest {
		t.Errorf("auto budget past cap: %d, want 400", w.Code)
	}
}

// TestJobLookupAndList covers GET /v1/jobs, GET /v1/jobs/{id} and the 404
// path.
func TestJobLookupAndList(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	a := submitSpec(t, s, quickSpec("a", 1))
	waitDone(t, s, a.ID, StateDone)

	if w := do(t, s, http.MethodGet, "/v1/jobs/"+a.ID, nil); w.Code != http.StatusOK {
		t.Fatalf("GET job: %d", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/v1/jobs/j-999999", nil); w.Code != http.StatusNotFound {
		t.Fatalf("GET missing job: %d, want 404", w.Code)
	}
	w := do(t, s, http.MethodGet, "/v1/jobs", nil)
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 || resp.Jobs[0].ID != a.ID {
		t.Fatalf("job list %+v, want exactly %s", resp.Jobs, a.ID)
	}
}

// TestUnboundedHorizonIsServed submits an online spec whose horizon, 2⁴⁰
// steps at rate 1 on a 64×64 mesh, would size a packet store of 2⁵² rows
// from its mean: the reservation is capped by the network, so the job
// builds and runs, and a DELETE at step 10 cancels it with the server
// still healthy.
func TestUnboundedHorizonIsServed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	atStep := make(chan struct{})
	var once sync.Once
	s.testStepHook = func(_ string, step int) {
		if step >= 10 {
			once.Do(func() { close(atStep) })
		}
	}
	body := []byte(`{"name":"unbounded-horizon","n":64,"k":4,"router":"dimorder",` +
		`"workload":{"kind":"online","horizon":1099511627776,"rate":1}}`)
	w := do(t, s, http.MethodPost, "/v1/jobs", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	select {
	case <-atStep:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached step 10")
	}
	if w := do(t, s, http.MethodDelete, "/v1/jobs/"+st.ID, nil); w.Code != http.StatusAccepted {
		t.Fatalf("DELETE running: %d %s", w.Code, w.Body)
	}
	final := waitDone(t, s, st.ID, StateCanceled)
	if final.Stats == nil || final.Stats.Steps < 10 || final.Stats.Total < 10*64*64 {
		t.Fatalf("canceled job's partial stats %+v, want at least 10 steps of 4096 injections", final.Stats)
	}
	if w := do(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz after the job: %d", w.Code)
	}
}

// TestHealthz checks the liveness endpoint in the accepting state (the
// draining side is covered by the shutdown test).
func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	w := do(t, s, http.MethodGet, "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	var body healthBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Fatalf("healthz status %q", body.Status)
	}
}

// TestCacheEviction checks the FIFO bound holds.
func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	c.put(fingerprint{'a'}, &Stats{Steps: 1})
	c.put(fingerprint{'b'}, &Stats{Steps: 2})
	c.put(fingerprint{'c'}, &Stats{Steps: 3})
	if _, ok := c.lookup(fingerprint{'a'}); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	for _, fp := range []fingerprint{{'b'}, {'c'}} {
		if _, ok := c.lookup(fp); !ok {
			t.Fatalf("entry %s evicted early", fp)
		}
	}
	if _, _, size := c.stats(); size != 2 {
		t.Fatalf("cache size %d, want 2", size)
	}
}
