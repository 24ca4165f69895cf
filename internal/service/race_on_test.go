//go:build race

package service

// raceDetector reports whether the tests run under the race detector,
// which slows the engine down about tenfold.
const raceDetector = true
