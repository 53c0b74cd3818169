//go:build !race

package wanem

const raceEnabled = false
