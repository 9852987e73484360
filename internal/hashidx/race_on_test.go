//go:build race

package hashidx

// raceEnabled reports whether the race detector is compiled in; tests of
// the Large kernel's index skip under it.
const raceEnabled = true
