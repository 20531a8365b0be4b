//go:build race

package rtmodel_test

// raceEnabled reports whether the race detector instruments this
// build; allocation-budget tests skip under it (instrumentation adds
// allocations the budget does not describe).
const raceEnabled = true
