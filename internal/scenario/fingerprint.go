package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"meshroute/internal/routers"
)

// Fingerprint returns the canonical content hash of the Spec: the SHA-256
// of its canonical JSON form, hex-encoded. Two specs share a fingerprint
// exactly when they describe the same run, so the engine's determinism
// (identical spec ⇒ identical result, pinned by the golden-digest suite)
// makes the fingerprint a sound cache key — internal/service uses it to
// serve repeat submissions without re-simulating.
//
// Canonicalization:
//
//   - presentation-only fields (name, metrics_out, trace_out) are cleared —
//     they label or export a run without changing its outcome — and so is
//     the deprecated workers field, which Build ignores;
//   - defaults are materialized: an empty topology becomes "mesh", an empty
//     queue model becomes the router's required model, a nil
//     check_invariants becomes the router Config's default, and a zero
//     max_steps becomes the automatic budget (for dynamic workloads, which
//     ignore the budget, max_steps is zeroed instead);
//   - the JSON is re-encoded through a map, so keys are sorted and field
//     order cannot leak into the hash.
//
// Every semantic field participates, including Seed and Workload.Seed, so
// any change to what would be executed changes the fingerprint.
// The Spec must be valid; the validation error is returned otherwise.
func (s *Spec) Fingerprint() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	c := *s
	c.Name = ""
	c.MetricsOut = ""
	c.TraceOut = ""
	c.Workers = 0
	if c.Topology == "" {
		c.Topology = TopoMesh
	}
	rspec, _ := routers.Lookup(c.Router)
	if c.Queues == "" {
		c.Queues = queueModelName(rspec.Queues)
	}
	if c.CheckInvariants == nil {
		// Config only stores the topology it is given; the default does not
		// depend on it.
		c.CheckInvariants = Bool(rspec.Config(nil, c.K).CheckInvariants)
	}
	c.Workload.ApplyOnlineDefaults()
	if c.Workload.Dynamic() && !c.Workload.Drain {
		c.MaxSteps = 0 // ignored by exact-horizon runs
	} else {
		c.MaxSteps = c.staticBudget()
	}
	if f := c.Faults; f != nil {
		ff := *f
		c.Faults = &ff
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return "", fmt.Errorf("scenario: fingerprint: %w", err)
	}
	// Decode and re-encode through a map: encoding/json sorts map keys, so
	// the byte stream is canonical regardless of struct field order.
	// UseNumber keeps 64-bit seeds as exact literals — float64 round-trips
	// would collapse seeds that differ only beyond 2^53.
	var m map[string]any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return "", fmt.Errorf("scenario: fingerprint: %w", err)
	}
	canon, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("scenario: fingerprint: %w", err)
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
