//go:build race

package scenario

// raceDetector reports whether the tests run under the race detector,
// whose shadow state inflates every allocation.
const raceDetector = true
