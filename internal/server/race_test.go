//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation allocates where
// a plain build does not, so allocation pins skip it.
const raceEnabled = true
