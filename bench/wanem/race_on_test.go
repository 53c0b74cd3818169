//go:build race

package wanem

// raceEnabled is true under the race detector, whose instrumentation
// makes the writer slower than the yardstick link.
const raceEnabled = true
