package main

import (
	"context"
	"log"
	"net"
	"time"

	"meshroute/internal/fleet"
)

// runWorker serves the fleet cell-execution API (POST /v1/cells) and
// keeps the process announced to its coordinator with a heartbeat. The
// worker holds no job state of its own — a cell either completes in one
// request/response exchange or it didn't happen, which is what lets the
// coordinator re-dispatch failed cells anywhere — so shutdown is just:
// stop announcing, stop accepting, let in-flight cells finish up to the
// drain budget.
func runWorker(addr, coordinatorURL, advertise string, slots, eventBuffer int, heartbeat, drain time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	selfURL := advertise
	if selfURL == "" {
		selfURL = guessAdvertiseURL(ln.Addr())
	}
	log.Printf("meshrouted worker listening on %s (advertising %s, coordinator %s)", ln.Addr(), selfURL, coordinatorURL)

	w := fleet.NewWorker(fleet.WorkerConfig{Slots: slots, EventBuffer: eventBuffer})
	serve(ln, w.Handler(), func(ctx context.Context) {
		fleet.Announce(ctx, nil, coordinatorURL, selfURL, heartbeat, log.Printf)
	}, func() time.Duration {
		log.Printf("shutdown signal received; finishing in-flight cells (budget %s)", drain)
		return drain
	})
	log.Printf("meshrouted worker stopped")
}

// guessAdvertiseURL turns the listener address into a URL the
// coordinator can dial back. A wildcard host becomes loopback — right
// for single-machine fleets; multi-host deployments pass -advertise.
func guessAdvertiseURL(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}
