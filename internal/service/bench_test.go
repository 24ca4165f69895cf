package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchSubmit drives one POST /v1/jobs through the handler and returns
// the accepted status.
func benchSubmit(b *testing.B, h http.Handler, body []byte) JobStatus {
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		b.Fatalf("POST /v1/jobs: %d %s", w.Code, w.Body)
	}
	var st JobStatus
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkSubmitCacheHit measures the submit→result path when the
// fingerprint is already cached: parse, fingerprint, lookup, respond —
// no simulation.
func BenchmarkSubmitCacheHit(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer shutdownBench(b, s)
	h := s.Handler()
	body, err := quickSpec("bench-hit", 1).JSON()
	if err != nil {
		b.Fatal(err)
	}

	warm := benchSubmit(b, h, body)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, ok := s.WaitJob(ctx, warm.ID); !ok || st.State != StateDone {
		b.Fatalf("warmup job state %v", st.State)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchSubmit(b, h, body)
		if !st.CacheHit {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkSubmitCacheMiss measures the full submit→simulate→result
// path: every iteration carries a fresh workload seed, so the
// fingerprint never repeats and each job runs the engine.
func BenchmarkSubmitCacheMiss(b *testing.B) {
	s := New(Config{Workers: 2, QueueDepth: 64, CacheSize: 1})
	defer shutdownBench(b, s)
	h := s.Handler()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := quickSpec(fmt.Sprintf("bench-miss-%d", i), int64(i)+1)
		body, err := spec.JSON()
		if err != nil {
			b.Fatal(err)
		}
		st := benchSubmit(b, h, body)
		if st.CacheHit {
			b.Fatal("unexpected cache hit")
		}
		final, ok := s.WaitJob(ctx, st.ID)
		if !ok || final.State != StateDone {
			b.Fatalf("job %s state %v", st.ID, final.State)
		}
	}
}

func shutdownBench(b *testing.B, s *Server) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSubmitFullRegistry measures a submission to a registry full of
// terminal jobs, where every submission evicts the oldest: a cache hit,
// so the figure is the admission path and the eviction. Its ns/op should
// not grow with RetainJobs.
func BenchmarkSubmitFullRegistry(b *testing.B) {
	for _, retain := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("retain=%d", retain), func(b *testing.B) {
			s := New(Config{Workers: 1, RetainJobs: retain})
			defer shutdownBench(b, s)
			h := s.Handler()
			body, err := quickSpec("bench-full", 1).JSON()
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if st, ok := s.WaitJob(ctx, benchSubmit(b, h, body).ID); !ok || st.State != StateDone {
				b.Fatalf("warmup job state %v", st.State)
			}
			for range retain {
				benchSubmit(b, h, body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSubmit(b, h, body)
			}
		})
	}
}
