//go:build race

package gate_test

// raceEnabled is true under the race detector, whose instrumentation
// allocates on its own account: allocation budgets do not hold there.
const raceEnabled = true
