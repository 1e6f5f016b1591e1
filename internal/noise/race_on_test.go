//go:build race

package noise

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
