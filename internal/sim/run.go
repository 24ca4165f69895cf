package sim

import "context"

// Run executes steps until every packet is delivered (Done), budget steps
// have run, the context is canceled or a step fails, and returns the number
// of steps executed in this call. An exhausted budget is not an error: the
// caller reads Done. A canceled run returns a *CanceledError carrying
// partial-progress diagnostics; a nil context never cancels. A step whose
// source pull named a node outside the topology ends the run with that
// error (Err), and so does every later call, which steps no more. After every
// step that succeeds or ends in a *LivelockError, after (if non-nil) sees
// the network and its step counter, so it also sees the step a watchdog
// abort ends the run on.
//
// Every call opens a fresh watchdog window: steps of an earlier call count
// as progress. A step that begins with nothing undelivered or pending also
// counts: an empty network is idle, not livelocked, so the quiet tail of a
// periodic process before its horizon runs out its steps whatever the
// watchdog window.
func (net *Network) Run(ctx context.Context, alg Algorithm, budget int, after func(net *Network, step int)) (int, error) {
	start := net.step
	if net.lastProgress < start {
		net.lastProgress = start
	}
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	for !net.Done() && net.srcErr == nil && net.step-start < budget {
		if cancel != nil {
			select {
			case <-cancel:
				return net.step - start, &CanceledError{
					Alg: alg.Name(), Steps: net.step - start,
					Cause: ctx.Err(), Diag: net.CollectDiagnostics(),
				}
			default:
			}
		}
		if net.delivered == net.total && len(net.pendingInj) == 0 {
			net.lastProgress = net.step + 1
		}
		err := net.StepOnce(alg)
		if _, livelock := err.(*LivelockError); after != nil && (err == nil || livelock) {
			after(net, net.step)
		}
		if err != nil {
			return net.step - start, err
		}
	}
	return net.step - start, net.srcErr
}
