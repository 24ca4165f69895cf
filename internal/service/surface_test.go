package service

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/flate"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"meshroute"
	"meshroute/internal/bounds"
	"meshroute/internal/fleet"
	"meshroute/internal/obs"
	"meshroute/internal/scenario"
)

// baseline is a row's direct scenario.Runner run: its Outcome, its
// -metrics-out file and what it added to an obs.Counters.
type baseline struct {
	want     scenario.Outcome
	file     []byte
	totals   obs.Totals
	packed   int // the bytes the file keeps as a sealed, packed event log
	deflated int // the bytes flate at BestSpeed packs the file to
}

// TestSurfaceMatrix holds every surface that runs a spec to one Outcome
// and one byte stream. The rows are every committed testdata/scenarios
// spec (the n=256 torus is left out under the race detector), smoke and
// dynamic-thm15-n12-k1 analyzed, and a 6×6 reversal the livelock watchdog
// aborts at step 1, twice: an abort is not cached, so the servers run it
// again. A column starts a row and returns the check that holds it to the
// row's baseline: an in-process server, a server coordinating two workers
// (one is closed after the first row), the facade and the coordinator
// itself. The baseline's delivered packets must meet the distance and cut
// bounds, and its event log, sealed and packed, must keep no more bytes
// than flate at BestSpeed packs it to (the watchdog abort's, which stays
// raw, excepted). The servers are POSTed a committed spec's file bytes as they
// are; the coordinator must complete a cell on a live worker, on its first
// attempt while both are up. Once every row has run, each server is
// resubmitted the done row, which must come from the cache and, through
// the coordinator, dispatch no cell, and the aborted row, which must run
// again, dispatched as one more cell. Once a server has stopped, so every
// job's log is sealed and packed, each job's late /events read must equal
// the row's -metrics-out bytes, and /metrics must count the logs at exactly
// the sum of those bytes and hold them in at most 40 % of it; the two
// servers' engine counters must agree, none may be zero, and the analyzed
// run count must be the number of analyzed rows. The coordinator adds the
// totals each worker counted (it does not decode the event lines), so the
// engine check is the one that nothing a local sink sees is missing from a
// cell's totals.
func TestSurfaceMatrix(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{HeartbeatTimeout: time.Minute, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	workers := make([]*httptest.Server, 2)
	for w := range workers {
		// Two cell slots whatever GOMAXPROCS is: a row runs two cells at once.
		workers[w] = httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{Slots: 2}).Handler())
		t.Cleanup(workers[w].Close)
		coord.Register(workers[w].URL)
	}
	live := []string{workers[0].URL, workers[1].URL}
	servers := []*surfaceServer{newSurfaceServer(t, nil), newSurfaceServer(t, coord)}
	columns := []func(*testing.T, surfaceRow) func(baseline){servers[0].column, servers[1].column, facadeColumn,
		func(t *testing.T, row surfaceRow) func(baseline) {
			res, err := coord.Execute(context.Background(), row.Spec)
			return func(b baseline) {
				if err != nil {
					t.Errorf("Execute: %v", err)
					return
				}
				lines := bytes.Count(b.file, []byte{'\n'})
				if res.Outcome != b.want || !bytes.Equal(res.Events, b.file) ||
					res.EventLines != lines || res.Totals != b.totals || res.EventsDropped != 0 ||
					!slices.Contains(live, res.Worker) || len(live) == 2 && res.Attempts != 1 {
					t.Errorf("Execute: %+v, totals %+v, %d event lines in %d bytes (%d dropped, same bytes %t), worker %s, attempt %d\nwant %+v, totals %+v, %d event lines in %d bytes, on one of %v",
						res.Outcome, res.Totals, res.EventLines, len(res.Events), res.EventsDropped, bytes.Equal(res.Events, b.file), res.Worker, res.Attempts,
						b.want, b.totals, lines, len(b.file), live)
				}
			}
		},
	}
	rows, base, ran, analyzed := surfaceRows(t), map[string]baseline{}, 0, int64(0)
	for i, row := range rows {
		t.Run(row.Name, func(t *testing.T) {
			ran++
			if row.Analysis {
				analyzed++
			}
			checks := make([]func(baseline), len(columns))
			for c, col := range columns {
				checks[c] = col(t, row)
			}
			base[row.Name] = runDirect(t, row.Spec)
			// Each log packs no worse than flate did. A watchdog abort's,
			// a step line and a long fault line, has no line to code
			// against and stays raw: 325 B, which flate packs to 203.
			if b := base[row.Name]; row.Watchdog == 0 && b.packed > b.deflated {
				t.Errorf("the sealed event log keeps %d of its %d bytes, flate %d", b.packed, len(b.file), b.deflated)
			}
			for _, check := range checks {
				check(base[row.Name])
			}
		})
		if i == 0 {
			workers[1].Close()
			live = live[:1]
		}
	}
	done, abort, all := rows[0], rows[len(rows)-2], ran == len(rows)
	if want := base[abort.Name].want; all && (want.Error == "" || want.Diagnostics == "") {
		t.Errorf("%s ended %+v, want an abort with diagnostics", abort.Name, want)
	}
	// Cells the coordinator dispatched: first attempts, whatever the retries.
	dispatched := func() int64 { tot := coord.Stats(); return tot.Dispatches - tot.Retries }
	for k, sv := range servers {
		sv.testJobStart, sv.testStepHook = nil, nil // a regression that runs the resubmission must not hang
		// A done row resubmitted comes from the cache, and through the
		// coordinator dispatches no cell; an aborted row is no result, so
		// it runs, and is dispatched, again.
		if all {
			for _, row := range []surfaceRow{done, abort} {
				hit, state, cells := row.Name == done.Name, StateFailed, int64(1)
				if hit {
					state, cells = StateDone, 0
				}
				before := dispatched()
				st := waitDone(t, sv.Server, submitSpec(t, sv.Server, row.Spec).ID, state)
				got := scenario.Outcome{Stats: *cmp.Or(st.Stats, new(Stats)), Error: st.Error, Diagnostics: st.Diagnostics}
				if st.CacheHit != hit || got != base[row.Name].want {
					t.Errorf("server %d, resubmitted %s: %+v, want cache hit %t and its outcome", k, row.Name, st, hit)
				}
				if n := dispatched() - before; sv.cfg.Fleet != nil && n != cells {
					t.Errorf("resubmitted %s through the coordinator: %d cells dispatched, want %d", row.Name, n, cells)
				}
				if !hit {
					sv.raw += int64(len(base[row.Name].file))
				}
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sv.Shutdown(ctx)
		cancel()
		for _, check := range sv.afterStop {
			check(t)
		}
		m := getMetrics(t, sv.Server)
		if all && (m.Events.RawBytes != sv.raw || m.Events.RetainedBytes*10 > sv.raw*4) {
			t.Errorf("server %d: /metrics events %+v, want %d raw bytes held in at most 40 %% of them", k, m.Events, sv.raw)
		}
		sv.engine, sv.engine.StepsPerSec = m.Engine, 0 // a rate over wall time, not a counter
	}
	// A row is one Execute and one fleet job, and the resubmitted abort one
	// more fleet job; a cache hit dispatches nothing.
	if got := coord.Stats().CellsCompleted; all && got != int64(2*len(rows)+1) {
		t.Errorf("coordinator completed %d cells, want %d", got, 2*len(rows)+1)
	}
	if all && servers[0].engine != servers[1].engine {
		t.Errorf("engine metrics differ\nin-process %+v\nfleet      %+v", servers[0].engine, servers[1].engine)
	}
	if got := servers[0].engine.AnalyzedRuns; all && got != analyzed {
		t.Errorf("/metrics counts %d analyzed runs, want one per analyzed row, %d", got, analyzed)
	}
	for v, f := reflect.ValueOf(servers[0].engine), 0; all && f < v.NumField(); f++ {
		if name := v.Type().Field(f).Name; name != "StepsPerSec" && v.Field(f).IsZero() {
			t.Errorf("no row moves the engine counter %s", name)
		}
	}
}

// surfaceRow is one row of the matrix: a spec and the body the servers are
// POSTed, a committed spec's file as it is or the spec's JSON.
type surfaceRow struct {
	*scenario.Spec
	body []byte
}

func specRow(t *testing.T, spec *scenario.Spec) surfaceRow {
	body, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return surfaceRow{spec, body}
}

// surfaceRows are the matrix's rows, a done one first and the two
// watchdog aborts last.
func surfaceRows(t *testing.T) (rows []surfaceRow) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	for _, path := range paths {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Parse(file)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !raceDetector || !strings.Contains(path, "torus-n256") {
			rows = append(rows, surfaceRow{spec, file})
		}
		if spec.Name == "smoke" || spec.Name == "dynamic-thm15-n12-k1" { // static and admission-time C+D
			analyzed := *spec
			analyzed.Name, analyzed.Analysis = spec.Name+"-analyzed", true
			rows = append(rows, specRow(t, &analyzed))
		}
	}
	abort := &scenario.Spec{Name: "watchdog-abort", N: 6, K: 2, Router: "dimorder",
		Workload: scenario.Workload{Kind: scenario.KindReversal}, Watchdog: 1}
	again := *abort
	again.Name = "watchdog-abort-again"
	return append(rows, specRow(t, abort), specRow(t, &again))
}

// runDirect is the baseline: spec run by a scenario.Runner writing
// -metrics-out, with an obs.Counters and an obs.EventLog as its sink. The
// packets the run delivers must meet the distance and cut bounds. The
// baseline counts the bytes the log keeps sealed and packed, as a retired
// job's is, and the bytes flate at BestSpeed packs the file to.
func runDirect(t *testing.T, spec *scenario.Spec) baseline {
	direct := *spec
	direct.MetricsOut = filepath.Join(t.TempDir(), "metrics.jsonl")
	var counters obs.Counters
	events := obs.NewEventLog(1 << 16)
	res, err := (&scenario.Runner{Sink: obs.Multi{&counters, events}}).Run(context.Background(), &direct)
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(direct.MetricsOut)
	if err != nil || !bytes.Equal(events.Bytes(), file) || spec.Analysis && !bytes.Contains(file, []byte(`{"t":"run"`)) {
		t.Fatalf("metrics file (%v): %d bytes, the event log's %d; an analyzed run must end on a run line", err, len(file), len(events.Bytes()))
	}
	events.Seal()
	events.Pack(obs.Compress(file))
	var deflated bytes.Buffer
	w, _ := flate.NewWriter(&deflated, flate.BestSpeed)
	if _, err := w.Write(file); err != nil || w.Close() != nil {
		t.Fatal(err)
	}
	in := bounds.Instance{Topo: res.Net.Topo, Pairs: res.Net.DeliveredPairs()}
	if err := bounds.Check(in, res.Net.Metrics.Makespan, bounds.Distance, bounds.Cut); err != nil {
		t.Error(err)
	}
	return baseline{res.Outcome(), file, counters.Totals(), events.Retained(), deflated.Len()}
}

// facadeColumn routes a static, unanalyzed row's placed pairs through
// meshroute.RouteWithOptions, which tells the stats or an abort's text.
// The facade turns the call back into a pairs Spec and runs it, so the
// column tests that translation.
func facadeColumn(t *testing.T, row surfaceRow) func(baseline) {
	spec := row.Spec
	run, err := spec.Build()
	if err != nil || spec.Workload.Dynamic() || spec.Analysis {
		return func(baseline) {}
	}
	perm, ps := &meshroute.Permutation{}, &run.Net.P
	for p := 1; p <= ps.Len(); p++ {
		perm.Pairs = append(perm.Pairs, meshroute.Pair{Src: ps.Src[p], Dst: ps.Dst[p]})
	}
	st, err := meshroute.RouteWithOptions(spec.Router, run.Net.Topo, spec.K, perm, meshroute.RouteOptions{
		MaxSteps: run.Budget, Faults: run.Faults, FaultAware: spec.FaultAware, Watchdog: spec.Watchdog, Seed: spec.Seed})
	got := fmt.Sprintf("%+v", st)
	if err != nil {
		got = err.Error()
	}
	return func(b baseline) {
		if want := cmp.Or(b.want.Error, fmt.Sprintf("%+v", b.want.Stats)); got != want {
			t.Errorf("RouteWithOptions: %s\nwant %s", got, want)
		}
	}
}

// surfaceServer is a server column. A job waits on hold at start until
// the test has a live follower on its /events and, run in-process, again
// after step 1 until that follower has its first line. After Shutdown,
// afterStop holds each job's straddling and late followers to its metrics
// file; raw sums the files.
type surfaceServer struct {
	*Server
	url       string
	hold      chan struct{}
	afterStop []func(*testing.T)
	raw       int64
	engine    EngineMetrics
}

func newSurfaceServer(t *testing.T, coord *fleet.Coordinator) *surfaceServer {
	sv := &surfaceServer{Server: newTestServer(t, Config{Workers: 1, QueueDepth: 4, Fleet: coord}), hold: make(chan struct{})}
	sv.testJobStart = func(*job) { <-sv.hold }
	sv.testStepHook = func(_ string, step int) {
		if step == 1 {
			<-sv.hold
		}
	}
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(ts.Close)
	sv.url = ts.URL
	return sv
}

// column submits the row's body; its check
// holds the retired job's status and live follower to the baseline. The
// straddling follower is the first line the live one read off the raw log,
// then the rest read once Shutdown has packed it.
func (sv *surfaceServer) column(t *testing.T, row surfaceRow) func(baseline) {
	spec := row.Spec
	st := submitJSON(t, sv.Server, row.body)
	if st.CacheHit {
		t.Fatalf("job %s for %s came from the cache", st.ID, spec.Name)
	}
	if fp, err := spec.Fingerprint(); err != nil || st.Fingerprint != fp {
		t.Errorf("job %s fingerprinted %s, want %s (%v)", st.ID, st.Fingerprint, fp, err)
	}
	id, first := st.ID, []byte(nil)
	attached, live := make(chan struct{}), make(chan []byte, 1)
	go func() {
		resp, err := http.Get(sv.url + "/v1/jobs/" + id + "/events")
		if err != nil {
			t.Error(err)
			resp = &http.Response{Body: http.NoBody}
		}
		defer resp.Body.Close()
		body := bufio.NewReader(resp.Body)
		line, _ := body.ReadBytes('\n')
		first = bytes.Clone(line)
		close(attached)
		rest, _ := io.ReadAll(body)
		live <- append(line, rest...)
	}()
	sv.hold <- struct{}{}
	if sv.cfg.Fleet == nil {
		<-attached
		sv.hold <- struct{}{}
	}
	return func(b baseline) {
		state := StateDone
		if b.want.Error != "" {
			state = StateFailed
		}
		st := waitDone(t, sv.Server, id, state)
		got := scenario.Outcome{Stats: *cmp.Or(st.Stats, new(Stats)), Error: st.Error, Diagnostics: st.Diagnostics}
		if lines := bytes.Count(b.file, []byte{'\n'}); got != b.want || st.Events != lines || st.EventsDropped != 0 {
			t.Errorf("job %s: %+v\nwant %+v and %d event lines", id, st, b.want, lines)
		}
		if got := <-live; !bytes.Equal(got, b.file) {
			t.Errorf("job %s: the live follower read %d bytes, want the metrics file's %d", id, len(got), len(b.file))
		}
		sv.raw += int64(len(b.file))
		sv.afterStop = append(sv.afterStop, func(t *testing.T) {
			straddled := append(first, readEvents(sv.eventsOf(id), len(first))...)
			late := do(t, sv.Server, http.MethodGet, "/v1/jobs/"+id+"/events", nil).Body.Bytes()
			if !bytes.Equal(straddled, b.file) || !bytes.Equal(late, b.file) {
				t.Errorf("job %s: the straddling and late followers read %d and %d bytes, want %d", id, len(straddled), len(late), len(b.file))
			}
		})
	}
}
