//go:build race

package relational

// raceEnabled reports whether the race detector instruments this build.
// The throughput guard skips itself under -race: instrumentation taxes the
// two join paths per memory access, not proportionally, so the ratio it
// measures there says nothing about the uninstrumented engine.
const raceEnabled = true
