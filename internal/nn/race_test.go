//go:build race

package nn

// raceEnabled gates assertions the race detector's runtime invalidates
// (sync.Pool drops puts at random under it) and the heaviest sweeps.
const raceEnabled = true
