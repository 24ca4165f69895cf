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
	var newC func(n, k int) (*adversary.Construction, error)
	switch *kind {
	case "general", "torus":
		newC = adversary.NewConstruction
	case "hh":
		newC = func(n, k int) (*adversary.Construction, error) { return adversary.NewHHConstruction(n, k, *h) }
	case "dimorder":
		newC = adversary.NewDOConstruction
	case "delta":
		newC = func(n, k int) (*adversary.Construction, error) { return adversary.NewDeltaConstruction(n, k, *delta) }
		spec, _ = meshroute.LookupRouter(meshroute.RouterStray)
		d := *delta
		spec.New = func() sim.Algorithm { return meshroute.NewDexAdapter(routers.StrayDimOrder{Delta: d}) }
	case "ff":
		newC = adversary.NewFFConstruction
		spec, _ = meshroute.LookupRouter(meshroute.RouterFarthestFirst)
	default:
		log.Fatalf("unknown construction %q", *kind)
	}
	c, err := adversary.ForQueues(newC, *n, *k, spec.Queues)
	if err != nil {
		log.Fatal(err)
	}
	c.Verify = *verify && c.H == 1
	if *kind == "torus" {
		c.Topo = meshroute.NewTorus(2 * *n)
	}
	// The completion replay can run for cap × bound steps, so it honors
	// SIGINT: an interrupt stops between steps and reports the partial
	// progress instead of discarding the construction.
	budget := 0
	if *complete {
		budget = *capMul * c.Par.Steps()
	}
	out, err := c.Pipeline(ctx, spec.New, budget)
	if out == nil {
		log.Fatal(err)
	}

	fmt.Printf("construction %q vs %q on n=%d k=%d\n", *kind, spec.Name, *n, *k)
	fmt.Printf("  constants: cn=%d dn=%d p=%d l=%d\n", out.Par.CN, out.Par.DN, out.Par.P, out.Par.L)
	fmt.Printf("  lower bound (Theorem 13): %d steps\n", out.Steps)
	fmt.Printf("  permutation size: %d packets, exchanges performed: %d\n", len(out.Permutation), out.Exchanges)
	fmt.Printf("  undelivered at the bound: %d\n", out.UndeliveredHard)
	fmt.Println("  replay: Lemma 12 configuration equivalence OK, packets still undelivered OK")

	var cerr *sim.CanceledError
	switch {
	case errors.As(err, &cerr):
		fmt.Printf("  completion: interrupted at step %d — %s\n", out.Steps+out.Executed, cerr.Diag)
		os.Exit(1)
	case err != nil:
		log.Fatal(err)
	case !*complete:
	case out.Done:
		fmt.Printf("  completion: %d steps (%.1f× the bound)\n", out.Makespan, float64(out.Makespan)/float64(out.Steps))
	default:
		fmt.Printf("  completion: not done after %d steps (≥ %d× the bound)\n", out.Steps+out.Executed, *capMul)
	}
}
