//go:build race

package stage

func init() { poisonFreed = true } // see arena
