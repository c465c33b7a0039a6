//go:build race

package nn

// raceEnabled gates assertions the race detector's runtime invalidates
// (it changes what allocates) and the heaviest sweeps.
const raceEnabled = true
