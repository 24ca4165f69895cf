package main

import (
	"time"
)

// The host this benchmark is refereed on runs at two clock speeds. For a
// few seconds at a time, sometimes for half a minute, every computation
// takes 1.28 times as long (2.1 GHz base against 2.7 GHz turbo), depending
// on what the neighbours on the same socket do. A run that reports the
// median of its operations' wall times therefore reports one of two
// numbers a quarter apart, and which one is decided by the neighbours
// (README.md, "The calibrated clock", has the traces).
//
// So every timed operation is bracketed by two reference spins: a fixed
// chain of dependent integer operations whose duration is inversely
// proportional to the clock speed and to nothing else. The operation's
// calibrated duration is its wall time divided by how much slower than
// nominal its two spins ran: seconds as a host running at full clock all the
// time would have counted them. Operations are kept short, a tenth to a
// third of a second, so that most of them lie inside one speed phase; one
// that straddles a change is mis-scaled, in either direction.

const (
	// spinRounds xorshift rounds are one spin. Each round depends on the one
	// before, so the chain can be neither vectorized nor reordered.
	spinRounds = 1_000_000
	// spinNominal is what one spin takes on the reference host (Xeon
	// 2.1 GHz, two cores of a shared machine) at full clock. It only sets
	// the scale: a different constant multiplies every time metric by the
	// same factor.
	spinNominal = 1.45e-3
)

var spinSink uint64

// spin returns the duration in seconds of the reference spin: the
// shortest of three, so that an interrupt lengthens none of what is kept.
func spin() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		t := time.Now()
		x := 88172645463325252 + spinSink
		for i := 0; i < spinRounds; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink += x & 1
		if d := time.Since(t).Seconds(); r == 0 || d < best {
			best = d
		}
	}
	return best
}

// calibrated converts a wall time measured between two spins into seconds
// at full clock.
func calibrated(wall time.Duration, before, after float64) float64 {
	return wall.Seconds() * spinNominal / ((before + after) / 2)
}

// steady is the value a run reports for a timing it took many times: the
// first decile of the calibrated samples. The host's interference only
// ever adds time, and not all of it is clock speed — a neighbour that
// fills the shared cache or the sibling hyperthread slows an operation by
// more than the spin shows, for seconds or for minutes — so the lower end of
// the distribution is the program's own cost. The decile, unlike the
// minimum, does not rest on one lucky or one mis-scaled sample: a run takes
// fifty to a hundred and fifty.
func steady(calibratedSeconds []float64) float64 {
	return quantile(calibratedSeconds, 0.1)
}

// steadyRate is steady for a rate (work per calibrated second): the ninth
// decile.
func steadyRate(rates []float64) float64 {
	return quantile(rates, 0.9)
}
