//go:build race

package recordio

// raceEnabled reports a -race test binary, whose instrumentation
// allocates; allocation checks skip themselves under it.
const raceEnabled = true
