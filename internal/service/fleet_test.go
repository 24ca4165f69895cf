package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meshroute/internal/fleet"
	"meshroute/internal/obs"
)

// startFleetWorker serves one fleet worker over httptest and registers
// it with a fresh coordinator tuned for tests.
func startFleetWorker(t *testing.T) (*fleet.Coordinator, *httptest.Server) {
	t.Helper()
	srv := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}).Handler())
	t.Cleanup(srv.Close)
	coord := fleet.NewCoordinator(fleet.Config{
		HeartbeatTimeout: time.Minute,
		BackoffBase:      time.Millisecond,
		BackoffCap:       5 * time.Millisecond,
	})
	coord.Register(srv.URL)
	return coord, srv
}

// eventsBody fetches a finished job's full NDJSON event stream.
func eventsBody(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	w := do(t, s, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET events: %d %s", w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// TestEventMetricsFollowEviction checks /metrics counts a log when it is
// sealed, as the raw buffer it is, recounts it when it is packed and
// uncounts it when its job leaves the registry.
func TestEventMetricsFollowEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2, RetainJobs: 1})
	events := func() EventMetrics { return getMetrics(t, s).Events }
	var id string
	logOf := func() obs.EventLog {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.findLocked(id).log
	}
	for seed := range int64(3) {
		id = submitSpec(t, s, quickSpec("evicted", seed)).ID
		waitDone(t, s, id, StateDone)
		log := logOf()
		if got, want := events(), (EventMetrics{RetainedBytes: int64(log.Retained()), RawBytes: int64(log.Len())}); got != want {
			t.Errorf("job %d: /metrics counts %+v, want only the retained job's raw log, %+v", seed, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	log := logOf()
	want := EventMetrics{RetainedBytes: int64(log.Retained()), RawBytes: int64(log.Len())}
	if got := events(); got != want || want.RetainedBytes >= want.RawBytes {
		t.Errorf("after the worker packed the last log, /metrics counts %+v, want its packed %+v", got, want)
	}
}

// TestFleetZeroWorkersFallsBack pins graceful degradation: a coordinator
// with no live workers executes jobs in-process instead of failing them.
func TestFleetZeroWorkersFallsBack(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Minute})
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Fleet: coord})

	st := waitDone(t, s, submitSpec(t, s, quickSpec("no-fleet", 3)).ID, StateDone)
	if st.Stats == nil || !st.Stats.Done {
		t.Fatalf("fallback run did not complete: %+v", st)
	}
	if tot := coord.Stats(); tot.Dispatches != 0 {
		t.Errorf("zero-worker fleet recorded %d dispatches", tot.Dispatches)
	}
}

// TestFleetWorkerEndpoints pins the coordinator's registration API and
// the /metrics fleet block.
func TestFleetWorkerEndpoints(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Minute})
	s := newTestServer(t, Config{Workers: 1, Fleet: coord})

	if w := do(t, s, http.MethodPost, "/v1/workers", []byte(`{"url":"not a url"}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("bad registration URL got %d, want 400", w.Code)
	}
	w := do(t, s, http.MethodPost, "/v1/workers", []byte(`{"url":"http://127.0.0.1:1"}`))
	if w.Code != http.StatusOK {
		t.Fatalf("registration: %d %s", w.Code, w.Body)
	}
	var reg struct {
		Workers int `json:"workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil || reg.Workers != 1 {
		t.Fatalf("registration response %s (err %v), want 1 worker", w.Body, err)
	}

	w = do(t, s, http.MethodGet, "/v1/workers", nil)
	var list struct {
		Workers []fleet.WorkerStatus `json:"workers"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0].URL != "http://127.0.0.1:1" || !list.Workers[0].Alive {
		t.Fatalf("worker list %+v, want the registered worker alive", list.Workers)
	}

	if m := getMetrics(t, s); m.Fleet == nil || m.Fleet.Alive != 1 || len(m.Fleet.Workers) != 1 {
		t.Fatalf("metrics fleet block %+v, want 1 live worker", m.Fleet)
	}
}

// TestFleetWithoutCoordinatorHidesEndpoints pins that a plain server
// does not expose the fleet API.
func TestFleetWithoutCoordinatorHidesEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(t, s, http.MethodPost, "/v1/workers", []byte(`{"url":"http://x:1"}`)); w.Code == http.StatusOK {
		t.Fatalf("non-coordinator accepted a worker registration: %d", w.Code)
	}
	if m := getMetrics(t, s); m.Fleet != nil {
		t.Fatalf("non-coordinator metrics carry a fleet block: %+v", m.Fleet)
	}
}

// TestSingleflightConcurrentSubmissions is the dedup race drill: N
// concurrent submissions of one identical spec must execute the engine
// exactly once, with every submission retiring with the same stats. Run
// under -race (this package is in the CI race list).
func TestSingleflightConcurrentSubmissions(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16})
	var executions int32
	gate := make(chan struct{})
	s.testJobStart = func(*job) {
		atomic.AddInt32(&executions, 1)
		<-gate
	}

	spec := quickSpec("dup", 99)
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]string, n)
	errs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(data))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			if w.Code != http.StatusAccepted {
				errs[i] = w.Body.String()
				return
			}
			var st JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				errs[i] = err.Error()
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(gate)
	for i, msg := range errs {
		if msg != "" {
			t.Fatalf("submission %d failed: %s", i, msg)
		}
	}

	deduped := 0
	var stats Stats
	for i, id := range ids {
		st := waitDone(t, s, id, StateDone)
		if i == 0 {
			stats = *st.Stats
		} else if *st.Stats != stats {
			t.Fatalf("job %s stats %+v differ from %+v", id, st.Stats, stats)
		}
		if st.Deduped {
			deduped++
		}
	}
	if got := atomic.LoadInt32(&executions); got != 1 {
		t.Fatalf("%d engine executions for %d identical submissions, want exactly 1", got, n)
	}
	if deduped != n-1 {
		t.Fatalf("%d submissions marked deduped, want %d", deduped, n-1)
	}
	if m := getMetrics(t, s); m.Cache.Deduped != int64(n-1) {
		t.Fatalf("metrics deduped %d, want %d", m.Cache.Deduped, n-1)
	}
}

// TestSingleflightWithinOneSweep pins dedup inside a single submission:
// a sweep listing the same spec twice runs it once.
func TestSingleflightWithinOneSweep(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	var executions int32
	s.testJobStart = func(*job) { atomic.AddInt32(&executions, 1) }

	one, err := quickSpec("twin", 7).JSON()
	if err != nil {
		t.Fatal(err)
	}
	sweep := []byte("[" + string(one) + "," + string(one) + "]")
	w := do(t, s, http.MethodPost, "/v1/jobs", sweep)
	if w.Code != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", w.Code, w.Body)
	}
	var resp struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 2 {
		t.Fatalf("sweep admitted %d jobs, want 2", len(resp.Jobs))
	}
	a := waitDone(t, s, resp.Jobs[0].ID, StateDone)
	b := waitDone(t, s, resp.Jobs[1].ID, StateDone)
	if got := atomic.LoadInt32(&executions); got != 1 {
		t.Fatalf("%d executions for a twin sweep, want 1", got)
	}
	if !resp.Jobs[1].Deduped && !b.Deduped {
		t.Error("second twin not marked deduped")
	}
	if *a.Stats != *b.Stats {
		t.Errorf("twin stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestDedupedCancelLeavesPrimary pins that canceling an attached
// (deduped) submission retires only that submission — the primary keeps
// running and completes.
func TestDedupedCancelLeavesPrimary(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	started, gate := gateJobs(s)

	spec := quickSpec("cancel-dup", 13)
	primary := submitSpec(t, s, spec)
	<-started
	dup := submitSpec(t, s, spec)
	if !dup.Deduped {
		t.Fatalf("second submission not deduped: %+v", dup)
	}
	if w := do(t, s, http.MethodDelete, "/v1/jobs/"+dup.ID, nil); w.Code != http.StatusAccepted {
		t.Fatalf("cancel deduped job: %d %s", w.Code, w.Body)
	}
	close(gate)
	if st := waitDone(t, s, primary.ID, StateDone); st.Stats == nil || !st.Stats.Done {
		t.Fatalf("primary did not complete after its follower was canceled: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st, _ := s.WaitJob(ctx, dup.ID); st.State != StateCanceled {
		t.Fatalf("deduped job state %s, want canceled", st.State)
	}
}

// TestRetryAfterEstimator pins the computed Retry-After: the 1-second
// floor before any job has run, growth with recent job durations and
// queue shortfall, and the 60-second cap.
func TestRetryAfterEstimator(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	lockedEstimate := func(needed int64) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.retryAfterLocked(needed)
	}
	if got := lockedEstimate(1); got != 1 {
		t.Fatalf("estimate before any job = %d, want the 1s floor", got)
	}
	for i := 0; i < 8; i++ {
		s.recordDuration(10 * time.Second)
	}
	small := lockedEstimate(1)
	if small <= 1 {
		t.Fatalf("estimate after 10s jobs = %d, want > 1", small)
	}
	big := lockedEstimate(20)
	if big <= small {
		t.Fatalf("estimate for a larger shortfall %d not above %d", big, small)
	}
	if capped := lockedEstimate(1000); capped != 60 {
		t.Fatalf("estimate %d, want the 60s cap", capped)
	}
}

// TestRetryAfterHeaderGrowsUnderLoad pins the wire behavior: a 429
// carries a Retry-After that grows once the server has seen slow jobs.
func TestRetryAfterHeaderGrowsUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started, gate := gateJobs(s)
	defer close(gate)

	submitSpec(t, s, quickSpec("occupant", 1))
	<-started // the worker holds job 1; its queue slot is free again
	submitSpec(t, s, quickSpec("occupant", 2))

	overflow := func() (int, string) {
		data, err := quickSpec("overflow", 3).JSON()
		if err != nil {
			t.Fatal(err)
		}
		w := do(t, s, http.MethodPost, "/v1/jobs", data)
		return w.Code, w.Header().Get("Retry-After")
	}
	code, ra := overflow()
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submission got %d, want 429", code)
	}
	idle, err := strconv.Atoi(ra)
	if err != nil || idle < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", ra)
	}

	// Teach the estimator that jobs are slow; the same refusal must now
	// advise a longer wait.
	for i := 0; i < 8; i++ {
		s.recordDuration(20 * time.Second)
	}
	_, ra = overflow()
	loaded, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", ra)
	}
	if loaded <= idle {
		t.Fatalf("Retry-After did not grow under load: %d then %d", idle, loaded)
	}
}
