package scenario

import (
	"math/rand"
	"regexp"
	"testing"
)

// fingerprint is the test helper: it fails the test on error.
func fingerprint(t *testing.T, s *Spec) string {
	t.Helper()
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint(%+v): %v", s, err)
	}
	return fp
}

func baseSpec() *Spec {
	return &Spec{
		N:        8,
		K:        2,
		Router:   "dimorder",
		Workload: Workload{Kind: KindRandom, Seed: 7},
	}
}

// TestFingerprintShape pins the output format: 64 lowercase hex digits.
func TestFingerprintShape(t *testing.T) {
	fp := fingerprint(t, baseSpec())
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(fp) {
		t.Fatalf("fingerprint %q is not 64 hex digits", fp)
	}
}

// TestFingerprintSemanticEquality checks that specs differing only in
// spelled-out defaults, presentation fields or the ignored workers field
// hash identically.
func TestFingerprintSemanticEquality(t *testing.T) {
	base := fingerprint(t, baseSpec())

	equal := map[string]*Spec{
		"explicit mesh topology": func() *Spec { s := baseSpec(); s.Topology = TopoMesh; return s }(),
		"explicit queue model":   func() *Spec { s := baseSpec(); s.Queues = QueuesCentral; return s }(),
		"name set":               func() *Spec { s := baseSpec(); s.Name = "labelled"; return s }(),
		"metrics output":         func() *Spec { s := baseSpec(); s.MetricsOut = "m.jsonl"; return s }(),
		"explicit automatic budget": func() *Spec {
			s := baseSpec()
			s.MaxSteps = 200 * (s.N*s.N/s.K + 2*s.N)
			return s
		}(),
		"explicit router-default invariants": func() *Spec {
			// The dimorder registry Config enables the invariant checker, so
			// spelling that out matches the nil default.
			s := baseSpec()
			s.CheckInvariants = Bool(true)
			return s
		}(),
		// The deprecated engine worker count is ignored by Build.
		"workers": func() *Spec { s := baseSpec(); s.Workers = 2; return s }(),
	}
	for name, s := range equal {
		if fp := fingerprint(t, s); fp != base {
			t.Errorf("%s: fingerprint diverged from base\n got %s\nwant %s", name, fp, base)
		}
	}
}

// TestFingerprintFieldSensitivity checks that every semantic field change
// moves the fingerprint — including the router seed and the workload seed.
func TestFingerprintFieldSensitivity(t *testing.T) {
	base := fingerprint(t, baseSpec())

	changed := map[string]*Spec{
		"n":              func() *Spec { s := baseSpec(); s.N = 10; return s }(),
		"k":              func() *Spec { s := baseSpec(); s.K = 3; return s }(),
		"router":         func() *Spec { s := baseSpec(); s.Router = "zigzag"; return s }(),
		"topology":       func() *Spec { s := baseSpec(); s.Topology = TopoTorus; return s }(),
		"workload kind":  func() *Spec { s := baseSpec(); s.Workload = Workload{Kind: KindTranspose}; return s }(),
		"workload seed":  func() *Spec { s := baseSpec(); s.Workload.Seed = 8; return s }(),
		"max steps":      func() *Spec { s := baseSpec(); s.MaxSteps = 17; return s }(),
		"watchdog":       func() *Spec { s := baseSpec(); s.Watchdog = 500; return s }(),
		"invariants off": func() *Spec { s := baseSpec(); s.CheckInvariants = Bool(false); return s }(),
		"analysis on":    func() *Spec { s := baseSpec(); s.Analysis = true; return s }(),
		"faults attached": func() *Spec {
			s := baseSpec()
			s.Faults = &Faults{Seed: 1, Horizon: 10, LinkFailures: 1, MeanDownSteps: 5}
			return s
		}(),
		"router seed": func() *Spec {
			s := baseSpec()
			s.Router = "rand-zigzag"
			s.Seed = 12345
			return s
		}(),
		"router seed (other)": func() *Spec {
			s := baseSpec()
			s.Router = "rand-zigzag"
			s.Seed = 12346
			return s
		}(),
	}
	seen := map[string]string{base: "base"}
	for name, s := range changed {
		fp := fingerprint(t, s)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s: fingerprint collides with %s", name, prev)
		}
		seen[fp] = name
	}
}

// TestFingerprintAnalysisOffStable pins the base spec's fingerprint to the
// value it hashed to before the analysis knob existed. The knob is
// omitempty, so analysis-off specs canonicalize to the same JSON as ever —
// cache keys minted by older builds (internal/service dedupes on the
// fingerprint) stay valid across the upgrade. If this literal ever has to
// change, every cached result keyed by an old fingerprint is orphaned;
// that is a breaking change, not a test update.
func TestFingerprintAnalysisOffStable(t *testing.T) {
	const pinned = "ab36453f4a36bc3fc395a99bc05aba428856a8ffc4fc3b6562378fe1ddb9ca0d"
	if fp := fingerprint(t, baseSpec()); fp != pinned {
		t.Fatalf("analysis-off fingerprint drifted:\n got %s\nwant %s", fp, pinned)
	}
}

// TestFingerprintLargeSeedPrecision guards the canonical encoding against
// float64 round-tripping: seeds that differ only beyond 2^53 must not
// collide.
func TestFingerprintLargeSeedPrecision(t *testing.T) {
	a, b := baseSpec(), baseSpec()
	a.Router, b.Router = "rand-zigzag", "rand-zigzag"
	a.Seed = 1<<62 + 0
	b.Seed = 1<<62 + 1
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("seeds 2^62 and 2^62+1 collide: canonical JSON lost integer precision")
	}
	a.Seed, b.Seed = 0, 0
	a.Workload.Seed = 1<<60 + 0
	b.Workload.Seed = 1<<60 + 1
	if fingerprint(t, a) == fingerprint(t, b) {
		t.Fatal("workload seeds 2^60 and 2^60+1 collide: canonical JSON lost integer precision")
	}
}

// TestFingerprintDynamicIgnoresBudget checks that max_steps, which exact-
// horizon workloads ignore, does not perturb their fingerprint.
func TestFingerprintDynamicIgnoresBudget(t *testing.T) {
	mk := func(maxSteps int) *Spec {
		return &Spec{
			N: 6, K: 2, Router: "dimorder",
			Workload: Workload{Kind: KindOnline, Process: ProcessPeriodic, Horizon: 40},
			MaxSteps: maxSteps,
		}
	}
	if fingerprint(t, mk(0)) != fingerprint(t, mk(9999)) {
		t.Fatal("dynamic workload fingerprint depends on the ignored max_steps")
	}
}

// TestFingerprintInvalidSpec checks the validation error surfaces.
func TestFingerprintInvalidSpec(t *testing.T) {
	s := baseSpec()
	s.Router = "no-such-router"
	if _, err := s.Fingerprint(); err == nil {
		t.Fatal("Fingerprint accepted an invalid spec")
	}
}

// TestFingerprintStableAcrossRoundTrip checks JSON round-tripping (the
// service submission path: client marshals, server parses) preserves the
// fingerprint for arbitrary valid specs.
func TestFingerprintStableAcrossRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		s := randomSpec(rng)
		data, err := s.JSON()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if fingerprint(t, s) != fingerprint(t, got) {
			t.Fatalf("spec %d: fingerprint changed across JSON round trip", i)
		}
	}
}
