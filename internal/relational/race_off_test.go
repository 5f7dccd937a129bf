//go:build !race

package relational

// raceEnabled reports whether the race detector instruments this build
// (see race_on_test.go for why the throughput guard cares).
const raceEnabled = false
