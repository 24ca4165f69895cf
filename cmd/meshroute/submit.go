package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"meshroute/internal/scenario"
	"meshroute/internal/service"
)

// runSubmit ships a spec file (single spec or sweep array) to a
// meshrouted server, waits for the results, and prints each job's
// statistics exactly like a local run. Progress notes go to stderr so
// stdout stays diffable against `meshroute -scenario`.
//
// Transient refusals — connection errors, 429 backpressure, 5xx — are
// retried with exponential backoff and jitter until -submit-timeout
// runs out; a 429's Retry-After header, when present, overrides the
// computed backoff.
func runSubmit(ctx context.Context, o cliOptions) error {
	data, err := os.ReadFile(o.submitFile)
	if err != nil {
		return err
	}
	// The server's own parser, so mistakes are caught before any network
	// round trip.
	specs, sweep, err := scenario.ParseSubmission(data)
	if err != nil {
		return err
	}
	base := strings.TrimRight(o.server, "/")
	client := &http.Client{Timeout: 30 * time.Second}
	if o.submitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.submitTimeout)
		defer cancel()
	}

	accepted, err := postJobsRetry(ctx, client, base, data, sweep)
	if err != nil {
		return err
	}
	if len(accepted) != len(specs) {
		return fmt.Errorf("server accepted %d jobs for %d specs", len(accepted), len(specs))
	}

	var firstErr error
	for i, st := range accepted {
		note := "queued"
		if st.CacheHit {
			note = "served from cache"
		}
		fmt.Fprintf(os.Stderr, "job %s: %s (fingerprint %.12s…)\n", st.ID, note, st.Fingerprint)
		final, err := pollJob(ctx, client, base, st.ID)
		if err != nil {
			return err
		}
		if final.Stats != nil {
			printOutcome(specs[i], scenario.Outcome{Stats: *final.Stats, Error: final.Error,
				Canceled: final.State == service.StateCanceled, Diagnostics: final.Diagnostics})
		}
		if final.State != service.StateDone {
			fmt.Fprintf(os.Stderr, "job %s %s: %s\n", final.ID, final.State, final.Error)
			if firstErr == nil {
				firstErr = fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
			}
		}
	}
	return firstErr
}

// transientError marks a submission refusal worth retrying; retryAfter
// carries the server's Retry-After advice (0 = use computed backoff).
type transientError struct {
	err        error
	retryAfter time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// postJobsRetry wraps postJobs with exponential backoff and ±50% jitter
// on transient errors, until ctx (bounded by -submit-timeout) expires.
// A 429's Retry-After advice replaces the computed backoff for that
// attempt.
func postJobsRetry(ctx context.Context, client *http.Client, base string, body []byte, sweep bool) ([]service.JobStatus, error) {
	const backoffBase = 500 * time.Millisecond
	const backoffCap = 10 * time.Second
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	backoff := backoffBase
	for attempt := 1; ; attempt++ {
		accepted, err := postJobs(ctx, client, base, body, sweep)
		var te *transientError
		if err == nil || !errors.As(err, &te) {
			return accepted, err
		}
		wait := backoff/2 + time.Duration(rng.Int63n(int64(backoff))) // uniform in [b/2, 3b/2)
		if te.retryAfter > 0 {
			wait = te.retryAfter
		}
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < wait {
			return nil, fmt.Errorf("giving up after %d attempts: %w", attempt, te.err)
		}
		fmt.Fprintf(os.Stderr, "submit attempt %d: %v — retrying in %s\n", attempt, te.err, wait.Round(time.Millisecond))
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("giving up after %d attempts: %w", attempt, te.err)
		case <-time.After(wait):
		}
		if backoff < backoffCap {
			backoff *= 2
		}
	}
}

// retryAfterHeader parses a Retry-After header as delay seconds (the
// only form meshrouted emits); 0 means absent or unparseable.
func retryAfterHeader(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// postJobs submits the raw file bytes and returns the accepted job
// statuses (one for a single spec, several for a sweep). Refusals that
// could succeed later come back as *transientError.
func postJobs(ctx context.Context, client *http.Client, base string, body []byte, sweep bool) ([]service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &transientError{err: fmt.Errorf("connect to %s: %w", base, err)}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, &transientError{err: fmt.Errorf("read response: %w", err)}
	}
	if resp.StatusCode != http.StatusAccepted {
		msg := strings.TrimSpace(string(payload))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(payload, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			return nil, &transientError{
				err:        fmt.Errorf("server busy (queue full): %s", msg),
				retryAfter: retryAfterHeader(resp),
			}
		case resp.StatusCode == http.StatusServiceUnavailable:
			// Draining: this process refuses, but its replacement may be
			// up before the retry budget runs out.
			return nil, &transientError{err: fmt.Errorf("server draining: %s", msg)}
		case resp.StatusCode >= 500:
			return nil, &transientError{err: fmt.Errorf("server error (%s): %s", resp.Status, msg)}
		default:
			return nil, fmt.Errorf("server refused submission (%s): %s", resp.Status, msg)
		}
	}
	if !sweep {
		var st service.JobStatus
		if err := json.Unmarshal(payload, &st); err != nil {
			return nil, fmt.Errorf("decode job status: %w", err)
		}
		return []service.JobStatus{st}, nil
	}
	var resp2 struct {
		Jobs []service.JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(payload, &resp2); err != nil {
		return nil, fmt.Errorf("decode sweep response: %w", err)
	}
	return resp2.Jobs, nil
}

// pollJob watches a job until it reaches a terminal state, riding out a
// few consecutive transient poll failures (a blip should not orphan an
// accepted job).
func pollJob(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	const maxConsecutiveFailures = 5
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	failures := 0
	for {
		st, err := getJob(ctx, client, base, id)
		switch {
		case err == nil:
			failures = 0
			if st.State.Terminal() {
				return st, nil
			}
		case errors.As(err, new(*transientError)) && ctx.Err() == nil:
			failures++
			if failures >= maxConsecutiveFailures {
				return service.JobStatus{}, fmt.Errorf("poll job %s: %d consecutive failures: %w", id, failures, err)
			}
		default:
			return service.JobStatus{}, err
		}
		select {
		case <-ctx.Done():
			return service.JobStatus{}, ctx.Err()
		case <-ticker.C:
		}
	}
}

func getJob(ctx context.Context, client *http.Client, base, id string) (service.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return service.JobStatus{}, &transientError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return service.JobStatus{}, &transientError{err: fmt.Errorf("poll job %s: %s", id, resp.Status)}
	}
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("poll job %s: %s", id, resp.Status)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, err
	}
	return st, nil
}
