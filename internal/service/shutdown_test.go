package service

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"meshroute/internal/scenario"
)

// longSpec is a periodic online run that injects for thousands of exact
// steps — long enough that a drain with an expired deadline always
// interrupts it mid-flight.
func longSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:   "long",
		N:      8,
		K:      1,
		Router: "thm15",
		Workload: scenario.Workload{
			Kind:    scenario.KindOnline,
			Process: scenario.ProcessPeriodic,
			Horizon: 5000,
		},
	}
}

// TestShutdownCancelsRunningJob is the graceful-drain contract: Shutdown
// with an already-expired context cancels an in-flight job, which retires
// as canceled with its partial statistics and diagnostics intact, the
// server stops accepting work, and every goroutine winds down.
func TestShutdownCancelsRunningJob(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := New(Config{Workers: 1, QueueDepth: 2})
	atStep := make(chan struct{})
	var once sync.Once
	s.testStepHook = func(id string, step int) {
		if step >= 100 {
			once.Do(func() { close(atStep) })
		}
	}

	st := submitSpec(t, s, longSpec())
	select {
	case <-atStep:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached step 100")
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(expired)

	final, ok := s.WaitJob(context.Background(), st.ID)
	if !ok {
		t.Fatal("job vanished during shutdown")
	}
	if final.State != StateCanceled {
		t.Fatalf("job state %s after drain, want canceled", final.State)
	}
	if final.Stats == nil {
		t.Fatal("canceled job lost its partial stats")
	}
	if final.Stats.Steps < 100 || final.Stats.Steps >= 5000 {
		t.Fatalf("partial steps %d, want interrupted in [100, 5000)", final.Stats.Steps)
	}
	if final.Stats.Done {
		t.Fatal("interrupted run claims completion")
	}
	if final.Diagnostics == "" {
		t.Fatal("canceled job has no diagnostics")
	}
	if final.Error == "" {
		t.Fatal("canceled job has no error message")
	}

	// Draining/stopped servers refuse new work and report unhealthy.
	if w := do(t, s, http.MethodGet, "/healthz", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d, want 503", w.Code)
	}
	data, err := longSpec().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, http.MethodPost, "/v1/jobs", data); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown: %d, want 503", w.Code)
	}

	// All worker and helper goroutines must have exited.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Fatalf("%d goroutines still alive after shutdown (baseline %d)", g, baseline)
	}
}

// TestShutdownDrainsQueuedJobs checks the patient path: with a generous
// deadline, Shutdown lets admitted work run to completion.
func TestShutdownDrainsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	a := submitSpec(t, s, quickSpec("a", 1))
	b := submitSpec(t, s, quickSpec("b", 2))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{a.ID, b.ID} {
		st, ok := s.WaitJob(context.Background(), id)
		if !ok || st.State != StateDone {
			t.Fatalf("job %s state %v after patient drain, want done", id, st.State)
		}
	}
}
