package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// testConfig returns coordinator settings tuned for tests: backoff in
// the low milliseconds, a heartbeat timeout long enough that liveness
// never flakes, and a generous per-attempt deadline (tests that exercise
// the deadline override it).
func testConfig() Config {
	return Config{
		HeartbeatTimeout: time.Minute,
		CellDeadline:     30 * time.Second,
		BackoffBase:      time.Millisecond,
		BackoffCap:       5 * time.Millisecond,
	}
}

func testSpec(name string, seed int64) *scenario.Spec {
	return &scenario.Spec{
		Name:     name,
		N:        6,
		K:        2,
		Router:   "dimorder",
		Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: seed},
	}
}

// startWorker serves a fresh Worker over httptest and returns the server.
func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// runLocal executes the spec in-process through the same Runner, event
// log and Counters a worker uses — the byte-identity baseline, with the
// baseline for a cell's totals.
func runLocal(t *testing.T, spec *scenario.Spec) (Stats, []byte, obs.Totals) {
	t.Helper()
	var counters obs.Counters
	events := obs.NewEventLog(65536)
	r := scenario.Runner{Sink: obs.Multi{&counters, events}}
	res, err := r.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Stats, events.Bytes(), counters.Totals()
}

// execute runs one cell through the coordinator and fails the test on a
// dispatch error.
func execute(t *testing.T, c *Coordinator, spec *scenario.Spec) *CellResult {
	t.Helper()
	res, err := c.Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

// TestExecuteNoWorkers covers both empty and all-dead fleets.
func TestExecuteNoWorkers(t *testing.T) {
	c := NewCoordinator(testConfig())
	if _, err := c.Execute(context.Background(), testSpec("none", 1)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("empty fleet: err %v, want ErrNoWorkers", err)
	}

	cfg := testConfig()
	cfg.HeartbeatTimeout = 10 * time.Millisecond
	c = NewCoordinator(cfg)
	c.Register("http://127.0.0.1:1") // never dialed: it dies before dispatch
	time.Sleep(30 * time.Millisecond)
	if got := c.Alive(); got != 0 {
		t.Fatalf("Alive after heartbeat timeout = %d, want 0", got)
	}
	if _, err := c.Execute(context.Background(), testSpec("dead", 1)); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("dead fleet: err %v, want ErrNoWorkers", err)
	}
}

// TestExecutePermanentErrorNotRetried pins that a worker-side 400 — the
// spec itself is unacceptable — fails the cell immediately as a typed
// *CellError instead of burning retries.
func TestExecutePermanentErrorNotRetried(t *testing.T) {
	srv := startWorker(t)
	c := NewCoordinator(testConfig())
	c.Register(srv.URL)

	spec := testSpec("bad", 1)
	spec.MetricsOut = "/tmp/nope.jsonl" // workers refuse file-path outputs
	_, err := c.Execute(context.Background(), spec)
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("err %v, want *CellError", err)
	}
	if cerr.Attempts != 1 {
		t.Errorf("attempts %d, want 1 (permanent errors are not retried)", cerr.Attempts)
	}
	if tot := c.Stats(); tot.Dispatches != 1 || tot.Retries != 0 || tot.CellsFailed != 1 {
		t.Errorf("totals %+v, want 1 dispatch, 0 retries, 1 failed", tot)
	}
}

// TestExecuteRunAbortNotRetried pins that a deterministic run-level
// abort (here: the livelock watchdog) is an authoritative worker answer:
// it comes back inside the result with partial stats, not as a retry.
func TestExecuteRunAbortNotRetried(t *testing.T) {
	srv := startWorker(t)
	c := NewCoordinator(testConfig())
	c.Register(srv.URL)

	spec := testSpec("livelock", 1)
	spec.Workload = scenario.Workload{Kind: scenario.KindReversal}
	spec.Watchdog = 1 // no delivery can happen in one step on a 6×6 reversal
	res := execute(t, c, spec)
	if res.Error == "" || !strings.Contains(res.Error, "watchdog") {
		t.Fatalf("result error %q, want a watchdog abort", res.Error)
	}
	if res.Canceled {
		t.Error("watchdog abort reported as canceled")
	}
	if res.Diagnostics == "" {
		t.Error("abort carried no diagnostics")
	}
	if res.Attempts != 1 {
		t.Errorf("attempts %d, want 1 (run aborts are deterministic)", res.Attempts)
	}
}

// flakyTransport fails the first n round trips at the transport layer
// (the client sees a connection error) and passes the rest through.
type flakyTransport struct {
	mu   sync.Mutex
	fail int
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	failing := f.fail > 0
	if failing {
		f.fail--
	}
	f.mu.Unlock()
	if failing {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, errors.New("flaky: connection refused")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestExecuteRetriesTransportErrors pins the retry loop: transient
// connection failures are retried with backoff until a dispatch lands,
// and the result is still byte-identical to a local run.
func TestExecuteRetriesTransportErrors(t *testing.T) {
	srv := startWorker(t)
	cfg := testConfig()
	cfg.Client = &http.Client{Transport: &flakyTransport{fail: 2}}
	c := NewCoordinator(cfg)
	c.Register(srv.URL)

	spec := testSpec("flaky", 3)
	wantStats, wantEvents, _ := runLocal(t, spec)
	res := execute(t, c, spec)
	if res.Attempts != 3 {
		t.Errorf("attempts %d, want 3 (two transport failures then success)", res.Attempts)
	}
	if res.Stats != wantStats || !bytes.Equal(res.Events, wantEvents) {
		t.Error("result after retries differs from local run")
	}
	if tot := c.Stats(); tot.Retries != 2 || tot.CellsCompleted != 1 {
		t.Errorf("totals %+v, want 2 retries, 1 completed", tot)
	}
}

// TestExecuteExhaustsRetries pins the typed terminal failure: when every
// attempt fails, Execute returns a *CellError carrying the attempt count
// and last cause.
func TestExecuteExhaustsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	cfg := testConfig()
	cfg.MaxAttempts = 3
	c := NewCoordinator(cfg)
	c.Register(srv.URL)

	_, err := c.Execute(context.Background(), testSpec("doomed", 1))
	var cerr *CellError
	if !errors.As(err, &cerr) {
		t.Fatalf("err %v, want *CellError", err)
	}
	if cerr.Attempts != 3 {
		t.Errorf("attempts %d, want 3", cerr.Attempts)
	}
	if !strings.Contains(cerr.Error(), "500") {
		t.Errorf("CellError %q does not preserve the last cause", cerr.Error())
	}
}

// TestChaosSweepCompletes drives a whole sweep through the chaos
// transport — drops, 5xx, mid-stream disconnects — and requires every
// cell to end correct and byte-identical to its local run.
func TestChaosSweepCompletes(t *testing.T) {
	w1 := startWorker(t)
	w2 := startWorker(t)
	chaos := NewChaos(42, http.DefaultTransport)
	chaos.Drop = 0.15
	chaos.Err5xx = 0.1
	chaos.Disconnect = 0.1
	cfg := testConfig()
	cfg.MaxAttempts = 12       // the chaos rates make 12 consecutive faults vanishingly unlikely
	cfg.BreakerThreshold = 100 // the breaker has its own tests; here it would only add flake
	cfg.Client = &http.Client{Transport: chaos}
	c := NewCoordinator(cfg)
	c.Register(w1.URL)
	c.Register(w2.URL)

	for i := 0; i < 8; i++ {
		spec := testSpec("chaos", int64(100+i))
		wantStats, wantEvents, _ := runLocal(t, spec)
		res := execute(t, c, spec)
		if res.Stats != wantStats {
			t.Fatalf("cell %d: stats %+v, want %+v", i, res.Stats, wantStats)
		}
		if !bytes.Equal(res.Events, wantEvents) {
			t.Fatalf("cell %d: events differ from local run", i)
		}
	}
	counts := chaos.Counts()
	if counts.Total() == 0 {
		t.Fatalf("chaos injected nothing (counts %+v); the test proved nothing", counts)
	}
	t.Logf("chaos counts: %+v; totals %+v", counts, c.Stats())
}

// truncateOnce cuts exactly the first response's body mid-stream and
// passes everything after through untouched.
type truncateOnce struct {
	mu   sync.Mutex
	done bool
}

func (tr *truncateOnce) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	tr.mu.Lock()
	first := !tr.done
	tr.done = true
	tr.mu.Unlock()
	if first {
		resp.Body = &truncatedBody{rc: resp.Body, remaining: 40}
	}
	return resp, nil
}

// TestDisconnectMidStreamRetried pins the truncation path specifically:
// a response cut mid-body must not be mistaken for a short-but-complete
// cell — it is retried and the retry's bytes are identical to local.
func TestDisconnectMidStreamRetried(t *testing.T) {
	srv := startWorker(t)
	cfg := testConfig()
	cfg.Client = &http.Client{Transport: &truncateOnce{}}
	c := NewCoordinator(cfg)
	c.Register(srv.URL)

	spec := testSpec("cut", 5)
	wantStats, wantEvents, _ := runLocal(t, spec)
	res := execute(t, c, spec)
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want 2 (first response was truncated)", res.Attempts)
	}
	if res.Stats != wantStats || !bytes.Equal(res.Events, wantEvents) {
		t.Error("result after mid-stream disconnect differs from local run")
	}
}

// TestCellLineWithoutTotalsRetried pins the protocol rule that replaced the
// coordinator's replay of event lines into its counters: a final line that
// is a "t":"cell" record but carries no totals is not a well-formed result.
// It is the same retryable class as a truncated stream — the cell goes to
// another worker — and a fleet of nothing but such workers ends in a typed
// *CellError whose cause is the *attemptError.
func TestCellLineWithoutTotalsRetried(t *testing.T) {
	spec := testSpec("no-totals", 9)
	wantStats, wantEvents, wantTotals := runLocal(t, spec)
	statsJSON, err := json.Marshal(wantStats)
	if err != nil {
		t.Fatal(err)
	}
	// A worker that answers with the right events and statistics, and a
	// result line without "totals".
	stale := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/x-ndjson")
		rw.Write(wantEvents)                                                 //nolint:errcheck
		rw.Write([]byte(`{"t":"cell","stats":` + string(statsJSON) + "}\n")) //nolint:errcheck
	}))
	t.Cleanup(stale.Close)

	cfg := testConfig()
	cfg.MaxAttempts = 2 // below the breaker threshold: every attempt is dispatched
	c := NewCoordinator(cfg)
	c.Register(stale.URL)
	_, err = c.Execute(context.Background(), spec)
	var cerr *CellError
	var aerr *attemptError
	if !errors.As(err, &cerr) || !errors.As(err, &aerr) || aerr.worker != stale.URL {
		t.Fatalf("err %v (%T), want a *CellError wrapping an *attemptError from %s", err, err, stale.URL)
	}
	if tot := c.Stats(); cerr.Attempts != 2 || tot.Dispatches != 2 {
		t.Errorf("gave up after %d attempts and %d dispatches, want both attempts used (retryable)", cerr.Attempts, tot.Dispatches)
	}

	// With a real worker beside it the cell completes there.
	c = NewCoordinator(testConfig())
	c.Register(stale.URL)
	c.Register(startWorker(t).URL)
	res := execute(t, c, spec)
	if res.Attempts != 2 || res.Worker == stale.URL {
		t.Errorf("attempts %d on %s, want the second attempt on the real worker", res.Attempts, res.Worker)
	}
	if res.Stats != wantStats || res.Totals != wantTotals || !bytes.Equal(res.Events, wantEvents) {
		t.Error("result after a totals-less first answer differs from local run")
	}
}

// TestKillWorkerMidCellRedispatches is the kill-worker drill: worker 1
// dies (connections severed) while executing a cell, and the cell must
// complete on worker 2 with output identical to a local run.
func TestKillWorkerMidCellRedispatches(t *testing.T) {
	w1 := NewWorker(WorkerConfig{})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	w1.testCellStart = func(*scenario.Spec) {
		once.Do(func() { close(started) })
		<-release
	}
	srv1 := httptest.NewServer(w1.Handler())
	defer func() {
		close(release) // unblock the orphaned handler so Close can finish
		srv1.Close()
	}()
	srv2 := startWorker(t)

	c := NewCoordinator(testConfig())
	c.Register(srv1.URL) // registration order: the first attempt lands here
	c.Register(srv2.URL)

	go func() {
		<-started
		srv1.CloseClientConnections() // kill -9, as the coordinator sees it
	}()
	spec := testSpec("kill", 9)
	wantStats, wantEvents, _ := runLocal(t, spec)
	res := execute(t, c, spec)
	if res.Worker != srv2.URL {
		t.Errorf("cell completed on %s, want the surviving worker %s", res.Worker, srv2.URL)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want 2", res.Attempts)
	}
	if res.Stats != wantStats || !bytes.Equal(res.Events, wantEvents) {
		t.Error("result after worker kill differs from local run")
	}
}

// TestStragglerDeadlineRedispatches pins work-stealing: a worker that
// sits on a cell past the per-attempt deadline loses it to a faster one.
func TestStragglerDeadlineRedispatches(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Well past the test's CellDeadline; the bound keeps srv.Close from
		// hanging on this abandoned handler.
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer slow.Close()
	fast := startWorker(t)

	cfg := testConfig()
	cfg.CellDeadline = 100 * time.Millisecond
	c := NewCoordinator(cfg)
	c.Register(slow.URL)
	c.Register(fast.URL)

	spec := testSpec("straggler", 11)
	wantStats, _, _ := runLocal(t, spec)
	start := time.Now()
	res := execute(t, c, spec)
	if res.Worker != fast.URL {
		t.Errorf("cell completed on %s, want %s", res.Worker, fast.URL)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want 2", res.Attempts)
	}
	if res.Stats != wantStats {
		t.Errorf("stats %+v, want %+v", res.Stats, wantStats)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("re-dispatch took %s; the deadline did not fire", elapsed)
	}
}

// TestBreakerOpensAndRoutesAround pins the circuit breaker at the
// coordinator level: a worker that keeps failing stops receiving cells
// while live alternatives exist.
func TestBreakerOpensAndRoutesAround(t *testing.T) {
	var badHits int
	var mu sync.Mutex
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		badHits++
		mu.Unlock()
		http.Error(w, `{"error":"broken"}`, http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := startWorker(t)

	cfg := testConfig()
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = time.Minute // stays open for the whole test
	c := NewCoordinator(cfg)
	c.Register(bad.URL)
	c.Register(good.URL)

	// Enough cells that the bad worker trips its breaker, then verify the
	// rest never touch it.
	for i := 0; i < 6; i++ {
		execute(t, c, testSpec("breaker", int64(200+i)))
	}
	mu.Lock()
	hits := badHits
	mu.Unlock()
	if hits > cfg.BreakerThreshold {
		t.Errorf("bad worker served %d dispatches, want at most the breaker threshold %d", hits, cfg.BreakerThreshold)
	}
	for _, ws := range c.Workers() {
		want := BreakerClosed
		if ws.URL == bad.URL {
			want = BreakerOpen
		}
		if ws.Breaker != want {
			t.Errorf("worker %s breaker %s, want %s", ws.URL, ws.Breaker, want)
		}
	}
}

// TestBreakerTransitions unit-tests the breaker state machine with
// synthetic clocks.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := breaker{threshold: 2, cooldown: 10 * time.Second}
	if !b.allow(now) || b.state(now) != BreakerClosed {
		t.Fatal("new breaker must be closed")
	}
	b.failure(now)
	if !b.allow(now) {
		t.Fatal("one failure below threshold must not open the breaker")
	}
	b.failure(now)
	if b.allow(now) || b.state(now) != BreakerOpen {
		t.Fatal("threshold failures must open the breaker")
	}
	later := now.Add(11 * time.Second)
	if !b.allow(later) || b.state(later) != BreakerHalfOpen {
		t.Fatal("after the cooldown the breaker must allow a half-open probe")
	}
	b.failure(later)
	if b.allow(later.Add(time.Second)) {
		t.Fatal("a failed probe must re-open the breaker")
	}
	b.success()
	if !b.allow(later) || b.state(later) != BreakerClosed {
		t.Fatal("success must close the breaker")
	}
}

// TestBackoffBoundedAndJittered pins the backoff envelope: attempt n
// sleeps within [base·2^(n-1)/2, min(cap, 3·base·2^(n-1)/2)] and never
// exceeds the cap.
func TestBackoffBoundedAndJittered(t *testing.T) {
	cfg := testConfig()
	cfg.BackoffBase = 100 * time.Millisecond
	cfg.BackoffCap = 5 * time.Second
	c := NewCoordinator(cfg)
	for n := 1; n <= 12; n++ {
		d := c.backoff(n)
		raw := cfg.BackoffBase << (n - 1)
		if raw > cfg.BackoffCap || raw <= 0 {
			raw = cfg.BackoffCap
		}
		if d < raw/2 || d > cfg.BackoffCap {
			t.Errorf("backoff(%d) = %s, want in [%s, %s]", n, d, raw/2, cfg.BackoffCap)
		}
	}
}

// TestExecuteHonorsContext pins that a canceled caller context surfaces
// as the context's error, not a retry storm.
func TestExecuteHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Outlast the caller's context; bounded so srv.Close can finish.
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	defer srv.Close()
	c := NewCoordinator(testConfig())
	c.Register(srv.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Execute(ctx, testSpec("ctx", 1))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

// TestAnnounceHeartbeats pins the worker side of liveness: Announce
// posts the advertised URL immediately and keeps re-posting it on the
// interval until the context ends.
func TestAnnounceHeartbeats(t *testing.T) {
	var mu sync.Mutex
	var beats []string
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/workers" {
			t.Errorf("unexpected announce request %s %s", r.Method, r.URL.Path)
		}
		var body struct {
			URL string `json:"url"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("announce body: %v", err)
		}
		mu.Lock()
		beats = append(beats, body.URL)
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer coord.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		Announce(ctx, nil, coord.URL, "http://worker.example:1234", 5*time.Millisecond, nil)
	}()
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(beats)
		mu.Unlock()
		if n >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d heartbeats before the deadline", n)
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	mu.Lock()
	defer mu.Unlock()
	for _, u := range beats {
		if u != "http://worker.example:1234" {
			t.Fatalf("announced %q, want the advertised URL", u)
		}
	}
}

// TestWorkerCapacity pins the worker's slot bound: a dispatch past Slots
// is refused with 429 (retryable elsewhere), not queued.
func TestWorkerCapacity(t *testing.T) {
	w := NewWorker(WorkerConfig{Slots: 1})
	holding := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	w.testCellStart = func(*scenario.Spec) {
		once.Do(func() { close(holding) })
		<-release
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	body, err := testSpec("cap", 1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		first <- err
	}()
	<-holding // the first cell owns the only slot
	resp, err := http.Post(srv.URL+"/v1/cells", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second concurrent cell got %d, want 429", resp.StatusCode)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first cell: %v", err)
	}
}
