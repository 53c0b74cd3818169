//go:build race

package transport

// raceEnabled is true under the race detector, whose instrumentation can
// make a writer slower than the link it is timed against.
const raceEnabled = true
