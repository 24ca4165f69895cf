// Command meshrouted serves the simulation engine over HTTP: scenario
// specs go in (POST /v1/jobs, single spec or sweep array), routing
// statistics come out, with a bounded FIFO job queue in between — the
// control-plane analogue of the paper's bounded-queue discipline. When
// the queue is full the server refuses new work with 429 instead of
// buffering without limit.
//
// Results are cached by the spec's canonical fingerprint: the engine is
// deterministic, so resubmitting an identical spec returns the stored
// statistics without simulating.
//
//	meshrouted -addr :8421 -workers 4 -queue-depth 64
//	meshroute -submit testdata/scenarios/smoke.json -server http://127.0.0.1:8421
//
// Fleet mode (see docs/SERVICE.md § Fleet) spreads sweep cells across
// worker processes: start one coordinator and any number of workers, and
// jobs submitted to the coordinator run wherever there is capacity —
// with retries, heartbeat liveness, and per-worker circuit breakers, and
// output byte-identical to a local run. With zero live workers the
// coordinator degrades to in-process execution.
//
//	meshrouted -coordinator -addr :8421
//	meshrouted -worker http://127.0.0.1:8421 -addr :8422
//	meshrouted -worker http://127.0.0.1:8421 -addr :8423
//
// SIGINT/SIGTERM starts a graceful drain: new submissions are refused
// (503), running jobs get up to -drain to finish, anything still running
// after that is canceled and retires with partial statistics.
//
// See docs/SERVICE.md for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"meshroute/internal/fleet"
	"meshroute/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8421", "listen address")
		workers     = flag.Int("workers", 0, "simulation worker-pool width (0 = GOMAXPROCS)")
		queueDepth  = flag.Int("queue-depth", 64, "job queue capacity; submissions past it get 429")
		cacheSize   = flag.Int("cache-size", 256, "result cache entries (negative disables caching)")
		maxJobSteps = flag.Int("max-job-steps", 0, "reject specs whose step budget exceeds this (0 = no cap)")
		eventBuffer = flag.Int("event-buffer", 65536, "per-job cap on buffered NDJSON event records")
		retainJobs  = flag.Int("retain-jobs", 4096, "terminal jobs kept in memory before eviction")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-drain budget on SIGTERM before running jobs are canceled")

		coordinator  = flag.Bool("coordinator", false, "accept worker registrations and dispatch jobs to the fleet")
		workerFor    = flag.String("worker", "", "run as a fleet worker for this coordinator URL (no job API)")
		advertise    = flag.String("advertise", "", "base URL workers announce to the coordinator (default: derived from -addr)")
		heartbeat    = flag.Duration("heartbeat", 2*time.Second, "worker announce interval")
		hbTimeout    = flag.Duration("heartbeat-timeout", 6*time.Second, "coordinator: a worker quiet this long is dead")
		cellDeadline = flag.Duration("cell-deadline", 5*time.Minute, "coordinator: per-attempt cell deadline before re-dispatch (straggler work-stealing)")
		cellRetries  = flag.Int("cell-retries", 4, "coordinator: dispatch attempts per cell before the job fails")
		cellSlots    = flag.Int("cell-slots", 0, "worker: concurrent cell executions (0 = GOMAXPROCS)")
	)
	flag.Parse()

	if *workerFor != "" {
		if *coordinator {
			log.Fatal("-worker and -coordinator are mutually exclusive")
		}
		runWorker(*addr, *workerFor, *advertise, *cellSlots, *eventBuffer, *heartbeat, *drain)
		return
	}

	cfg := service.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		CacheSize:   *cacheSize,
		MaxJobSteps: *maxJobSteps,
		EventBuffer: *eventBuffer,
		RetainJobs:  *retainJobs,
	}
	if *coordinator {
		cfg.Fleet = fleet.NewCoordinator(fleet.Config{
			HeartbeatTimeout: *hbTimeout,
			CellDeadline:     *cellDeadline,
			MaxAttempts:      *cellRetries,
		})
	}
	svc := service.New(cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("meshrouted listening on %s", ln.Addr())
	if *coordinator {
		log.Printf("fleet coordinator mode: workers register at POST /v1/workers (heartbeat timeout %s, cell deadline %s, %d attempts)",
			*hbTimeout, *cellDeadline, *cellRetries)
	}

	serve(ln, svc.Handler(), func(context.Context) {}, func() time.Duration {
		log.Printf("shutdown signal received; draining jobs (budget %s)", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := svc.Shutdown(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
		return 5 * time.Second
	})
	log.Printf("meshrouted stopped")
}

// serve serves handler on ln until SIGINT or SIGTERM, then shuts down: it
// calls drain, which returns how long the HTTP server then gets to finish
// in-flight requests, and waits for Serve to return. start runs alongside
// the server with a context the signal cancels, and serve waits for it too.
func serve(ln net.Listener, handler http.Handler, start func(context.Context), drain func() time.Duration) {
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	startDone := make(chan struct{})
	go func() {
		defer close(startDone)
		start(ctx)
	}()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	httpCtx, cancel := context.WithTimeout(context.Background(), drain())
	defer cancel()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	<-startDone
}
