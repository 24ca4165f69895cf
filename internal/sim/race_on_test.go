//go:build race

package sim_test

// raceDetector reports whether the tests run under the race detector, which
// slows the reference comparison of the n=256 torus about tenfold.
const raceDetector = true
