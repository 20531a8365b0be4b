//go:build race

package resolve

// raceEnabled reports whether the race detector instruments this
// build; allocation-budget tests skip under it (instrumentation adds
// allocations the budget does not describe).
const raceEnabled = true
