package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"meshroute/internal/scenario"
)

// heapSpecs are n=32 k=4 random-permutation jobs cycling dimorder, zigzag
// and thm15, the repository benchmark's sweep jobs.
func heapSpecs(n int, seed int64) []*scenario.Spec {
	routers := []string{"dimorder", "zigzag", "thm15"}
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		specs[i] = &scenario.Spec{Name: fmt.Sprintf("heap-%d", i), N: 32, K: 4, Router: routers[i%len(routers)],
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: seed + int64(i)}}
	}
	return specs
}

// retainedPerJob starts a one-worker server with cfg, runs warm one job at
// a time, then specs, and returns the heap the server kept per spec: the
// HeapAlloc growth, after two collections, over the specs' jobs, each
// waited for and its /events read. The heap is read while a small job is
// held at its start: the worker packs a job's log once it has run its next
// job, so no pack is under way then, and the log the worker has not
// packed yet is one job's at both readings.
func retainedPerJob(t *testing.T, cfg Config, warm, specs []*scenario.Spec) float64 {
	cfg.Workers, cfg.QueueDepth = 1, 4
	s := newTestServer(t, cfg)
	held, release := make(chan struct{}), make(chan struct{})
	s.testJobStart = func(j *job) {
		if j.spec.Name == "held" {
			held <- struct{}{}
			<-release
		}
	}
	run := func(specs []*scenario.Spec) {
		for _, spec := range specs {
			id := submitSpec(t, s, spec).ID
			waitDone(t, s, id, StateDone)
			eventsBody(t, s, id)
		}
	}
	seed := int64(0)
	quiet := func() int64 {
		seed++
		id := submitSpec(t, s, quickSpec("held", seed)).ID
		<-held
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		close(release)
		release = make(chan struct{})
		waitDone(t, s, id, StateDone)
		return int64(m.HeapAlloc)
	}
	run(warm)
	before := quiet()
	run(specs)
	return float64(quiet()-before) / float64(len(specs))
}

// TestRetainedJobHeap holds what a retired job keeps to a budget: its
// record and its packed event log. An n=32 k=4 job streams ~56 lines,
// ~6.3 KB, which pack to ~0.9 KB; an executed job may keep 1.5 KB in all,
// a cache hit (no log) 0.6 KB, and a job dispatched through a coordinator
// with one fleet worker no more than 5 % above one run in-process.
func TestRetainedJobHeap(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	const jobs = 600
	warm, resubmitted := heapSpecs(3, 1<<20), make([]*scenario.Spec, jobs)
	for i := range resubmitted {
		resubmitted[i] = warm[i%len(warm)]
	}
	coord, _ := startFleetWorker(t)
	executed := retainedPerJob(t, Config{}, warm, heapSpecs(jobs, 1))
	fleet := retainedPerJob(t, Config{Fleet: coord}, warm, heapSpecs(jobs, 1))
	hit := retainedPerJob(t, Config{}, warm, resubmitted)

	t.Logf("retained per job: executed %.0f B, through the fleet %.0f B, cache hit %.0f B", executed, fleet, hit)
	if executed > 1500 {
		t.Errorf("an executed job keeps %.0f B, over 1 500", executed)
	}
	if hit > 600 {
		t.Errorf("a cache hit keeps %.0f B, over 600", hit)
	}
	if fleet > executed*1.05 {
		t.Errorf("a job run through the fleet keeps %.0f B, over 5 %% above the %.0f B in-process", fleet, executed)
	}
}

// TestEvictionKeepsLiveJobs pins the eviction order: past RetainJobs the
// oldest terminal jobs go, and a live job is passed over, keeping its
// place. A job is held running at the head while 20 more run one at a
// time; GET /v1/jobs must then list what walking the whole registry after
// every submission, dropping terminal jobs while it is over the cap,
// leaves: the running job, then the newest terminal ones.
func TestEvictionKeepsLiveJobs(t *testing.T) {
	const retain, more = 8, 20
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 4, RetainJobs: retain})
	held, release := make(chan struct{}), make(chan struct{})
	s.testJobStart = func(j *job) {
		if j.seq == 1 {
			close(held)
			<-release
		}
	}
	type entry struct {
		ID    string
		State State
	}
	want := []entry{{submitSpec(t, s, quickSpec("head", 1)).ID, StateRunning}}
	<-held
	for i := range more {
		id := submitSpec(t, s, quickSpec("tail", int64(i)+2)).ID
		want = append(want, entry{id, StateQueued})
		n, kept := len(want), want[:0]
		for _, e := range want {
			if n > retain && e.State.Terminal() {
				n--
				continue
			}
			kept = append(kept, e)
		}
		want = kept
		waitDone(t, s, id, StateDone)
		want[len(want)-1].State = StateDone
	}
	var got struct{ Jobs []entry }
	if err := json.Unmarshal(do(t, s, http.MethodGet, "/v1/jobs", nil).Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Jobs, want) {
		t.Errorf("GET /v1/jobs lists %v, want %v", got.Jobs, want)
	}
	close(release)
	waitDone(t, s, want[0].ID, StateDone)
}

// TestRetireRacesFollowers races the retire swap against everything that
// reads a job: a live follower over HTTP from submission on; a straddling
// one, which reads the first line while the job is held after step 1 and
// the rest once the job has retired, racing the worker's pack; a late one
// over HTTP after that; a DELETE for two jobs in three, sent at once or
// as the job resumes after step 1; and submissions, resubmissions among
// them, that evict. Every follower that finds its job must read its whole
// log, the same bytes as the others: the metrics file of a direct run for
// a done job, a line-aligned head of it for a canceled one. A job evicted
// before a follower looks it up is a 404.
func TestRetireRacesFollowers(t *testing.T) {
	const jobs = 16
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 2 * jobs, RetainJobs: 6})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var gates sync.Map // job id → closed once its straddler has read
	s.testStepHook = func(id string, step int) {
		if g, ok := gates.Load(id); ok && step == 1 {
			<-g.(chan struct{})
		}
	}
	get := func(id string) ([]byte, bool) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Error(err)
			return nil, false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s/events: %d %v", id, resp.StatusCode, err)
		}
		return body, resp.StatusCode == http.StatusOK
	}
	// follow runs one job's followers and DELETE, then checks what they read.
	follow := func(i int, id string, file []byte, gate chan struct{}) {
		var (
			mu     sync.Mutex
			bodies [][]byte
			state  State
			wg     sync.WaitGroup
		)
		keep := func(body []byte) { mu.Lock(); bodies = append(bodies, body); mu.Unlock() }
		wg.Add(3)
		go func() {
			defer wg.Done()
			if body, ok := get(id); ok {
				keep(body)
			}
		}()
		go func() {
			defer wg.Done()
			var first []byte
			if ev := s.eventsOf(id); ev != nil {
				first, _ = ev.next(context.Background(), 0)
			}
			close(gate)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if st, ok := s.WaitJob(ctx, id); ok {
				state = st.State
			}
			if ev := s.eventsOf(id); ev != nil {
				keep(append(first, readEvents(ev, len(first))...))
			}
			if body, ok := get(id); ok {
				keep(body)
			}
		}()
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 1:
				<-gate
				fallthrough
			case 0:
				do(t, s, http.MethodDelete, "/v1/jobs/"+id, nil)
			}
		}()
		wg.Wait()
		for _, body := range bodies {
			if !bytes.Equal(body, bodies[0]) || !bytes.HasPrefix(file, body) || len(body) > 0 && body[len(body)-1] != '\n' ||
				state == StateDone && len(body) != len(file) {
				t.Errorf("job %s (%s): followers read %d bytes and %d, want the same line-aligned head of the %d-byte metrics file, all of it when done",
					id, state, len(body), len(bodies[0]), len(file))
			}
		}
	}
	var wg sync.WaitGroup
	specs, seq := make([]*scenario.Spec, jobs), 0
	for i := range specs {
		specs[i] = &scenario.Spec{Name: fmt.Sprintf("race-%d", i), N: 10, K: 2, Router: "dimorder",
			Workload: scenario.Workload{Kind: scenario.KindRandom, Seed: int64(i) + 1}}
		file := runDirect(t, specs[i]).file
		seq++
		id, gate := (&record{seq: seq}).id(), make(chan struct{})
		gates.Store(id, gate)
		if st := submitSpec(t, s, specs[i]); st.ID != id {
			t.Fatalf("job %s, want the id %s", st.ID, id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			follow(i, id, file, gate)
		}()
		if i >= 3 {
			seq++
			submitSpec(t, s, specs[i-3]) // a cache hit, a dedup or a rerun
		}
	}
	wg.Wait()
}
