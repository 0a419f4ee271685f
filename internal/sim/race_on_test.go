//go:build race

package sim

// raceEnabled gates tests whose scale is pointless under the race
// detector's 5-20x slowdown (the 20k cross-check exercises no
// concurrency — sim.Run is single-goroutine).
const raceEnabled = true
