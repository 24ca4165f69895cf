// Command lowerbound builds a constructed (adversarial) permutation for a
// routing algorithm, verifies the replay equivalence of Lemma 12 and the
// Theorem 13 undeliverability, and optionally measures the full delivery
// time of the constructed permutation.
//
// Usage:
//
//	lowerbound -construction general -router dimorder -n 216 -k 1 -verify
//	lowerbound -construction dimorder -router thm15 -n 120 -k 1 -complete
//	lowerbound -construction ff -n 128 -k 2
//	lowerbound -construction hh -n 120 -k 1 -h 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"meshroute"
	"meshroute/internal/adversary"
	"meshroute/internal/routers"
	"meshroute/internal/sim"
)

func main() {
	var (
		kind     = flag.String("construction", "general", "general|dimorder|ff|hh|torus|delta")
		router   = flag.String("router", meshroute.RouterDimOrder, "router under attack")
		n        = flag.Int("n", 120, "mesh side")
		k        = flag.Int("k", 1, "queue size")
		h        = flag.Int("h", 2, "h for the h-h construction")
		delta    = flag.Int("delta", 1, "stray budget for the delta construction")
		verify   = flag.Bool("verify", false, "check Lemmas 1-8 at every step")
		complete = flag.Bool("complete", false, "run the replay to completion and report the makespan")
		capMul   = flag.Int("cap", 40, "completion step cap as a multiple of the bound")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	spec, err := meshroute.LookupRouter(*router)
	if err != nil {
		log.Fatal(err)
	}

	// Every construction is one adversary.Construction; the flag picks its
	// geometry and parameters. The δ and farthest-first constructions
	// attack their own router, whatever -router says.
	var c *adversary.Construction
	switch *kind {
	case "general", "torus":
		c, err = adversary.NewConstruction(*n, effK(spec, *k))
	case "hh":
		c, err = adversary.NewHHConstruction(*n, effK(spec, *k), *h)
	case "dimorder":
		c, err = adversary.NewDOConstruction(*n, effK(spec, *k))
	case "delta":
		c, err = adversary.NewDeltaConstruction(*n, *k, *delta)
		spec, _ = meshroute.LookupRouter(meshroute.RouterStray)
		d := *delta
		spec.New = func() sim.Algorithm { return meshroute.NewDexAdapter(routers.StrayDimOrder{Delta: d}) }
	case "ff":
		c, err = adversary.NewFFConstruction(*n, *k)
		spec, _ = meshroute.LookupRouter(meshroute.RouterFarthestFirst)
	default:
		log.Fatalf("unknown construction %q", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}
	c.Verify = *verify && c.H == 1
	c.Queues = spec.Queues
	c.NetK = *k
	if *kind == "torus" {
		c.Topo = meshroute.NewTorus(2 * *n)
	}
	res, err := c.Run(spec.New())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("construction %q vs %q on n=%d k=%d\n", *kind, spec.Name, *n, *k)
	fmt.Printf("  constants: cn=%d dn=%d p=%d l=%d\n", res.Par.CN, res.Par.DN, res.Par.P, res.Par.L)
	fmt.Printf("  lower bound (Theorem 13): %d steps\n", res.Steps)
	fmt.Printf("  permutation size: %d packets, exchanges performed: %d\n", len(res.Permutation), res.Exchanges)
	fmt.Printf("  undelivered at the bound: %d\n", res.UndeliveredHard)

	net, err := c.Replay(res, spec.New())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  replay: Lemma 12 configuration equivalence OK, packets still undelivered OK")

	if *complete {
		// The completion replay can run for cap × bound steps, so it honors
		// SIGINT: an interrupt stops between steps and reports the partial
		// progress instead of discarding the construction.
		cap := *capMul * res.Steps
		_, err := net.Run(ctx, spec.New(), cap-net.Step(), nil)
		var cerr *sim.CanceledError
		if errors.As(err, &cerr) {
			fmt.Printf("  completion: interrupted at step %d — %s\n", net.Step(), cerr.Diag)
			os.Exit(1)
		}
		if err != nil {
			log.Fatal(err)
		}
		mk, done := net.Metrics.Makespan, net.Done()
		if done {
			fmt.Printf("  completion: %d steps (%.1f× the bound)\n", mk, float64(mk)/float64(res.Steps))
		} else {
			fmt.Printf("  completion: not done after %d steps (≥ %d× the bound)\n", net.Step(), *capMul)
		}
	}
}

// effK maps the router's queue model to the effective central-queue
// capacity the construction constants must assume (Section 5, "Other Queue
// Types": four queues of size k simulate a central queue of size 4k; +1
// for the origin slot).
func effK(spec meshroute.RouterSpec, k int) int {
	if spec.Queues == sim.PerInlinkQueues {
		return 4*k + 1
	}
	return k
}
