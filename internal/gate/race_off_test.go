//go:build !race

package gate_test

const raceEnabled = false
