//go:build !race

package sim

// RaceDetector reports whether the tests run under the race detector, which
// slows a step about tenfold: the largest runs are left out under it.
const RaceDetector = false
