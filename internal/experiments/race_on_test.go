//go:build race

package experiments

// raceEnabled is true under the race detector, whose instrumentation
// slows every goroutine far past the latencies the bars are set for.
const raceEnabled = true
