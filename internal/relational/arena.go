package relational

// Arena recycles join-output tables. The extend loop of Algorithm 1
// produces one short-lived joined table per candidate extension — alive
// only until the miner has scored it and, if it clears τ, Dedup has
// compacted it — so without recycling every join would allocate a table,
// its column names, its column slice and its column buffers. An Engine
// with an Arena attached draws each output table from the free list, and
// the miner hands it back with Engine.Release once it is done with it;
// steady-state extension then allocates nothing per join.
//
// An Arena is NOT safe for concurrent use: like Stats, it belongs to
// exactly one Engine, and the parallel miner gives each worker its own
// engine+arena pair. Arena counters are deliberately kept OUT of Stats —
// reuse depends on job scheduling, and Stats must stay a pure function of
// the joined tables — so they surface only through obs (ArenaMetrics),
// never through mining.Result.
type Arena struct {
	free []*Table

	gets   int64 // output columns requested
	reuses int64 // output columns served from a released buffer
	puts   int64 // column buffers returned
}

// maxArenaTables bounds the free list; beyond it Release drops tables on
// the floor rather than holding peak-size memory forever.
const maxArenaTables = 64

// table returns a table of the given arity with empty columns and no
// column names, for the join writer to fill (it also sets the row count),
// reusing a released table — its column-name slice, its column slice and
// the column buffers in it — when one is available. A nil arena degrades
// to plain allocation.
func (a *Arena) table(arity int) *Table {
	if a == nil {
		return &Table{cols: make([]string, 0, arity), data: make([][]Value, arity)}
	}
	var t *Table
	if n := len(a.free); n > 0 {
		t = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		t = &Table{}
	}
	if arity > cap(t.data) {
		t.data = append(t.data[:cap(t.data)], make([][]Value, arity-cap(t.data))...)
	}
	// Columns beyond arity stay in the backing array for a wider join.
	t.data = t.data[:arity]
	for c, col := range t.data {
		a.gets++
		if cap(col) > 0 {
			a.reuses++
		}
		t.data[c] = col[:0]
	}
	t.cols = t.cols[:0]
	return t
}

// ArenaMetrics is a point-in-time snapshot of an arena's reuse counters,
// merged into the obs registry by the miner (never into Stats).
type ArenaMetrics struct {
	Gets   int64
	Reuses int64
	Puts   int64
}

// Metrics snapshots the arena counters; nil-safe.
func (a *Arena) Metrics() ArenaMetrics {
	if a == nil {
		return ArenaMetrics{}
	}
	return ArenaMetrics{Gets: a.gets, Reuses: a.reuses, Puts: a.puts}
}

// Release hands t back to the engine's arena, whose next join reuses it.
// Only call it on a table the engine produced (a join output), once, and
// once no one holds a reference to it or its columns — in the miner, on
// the raw joined table after it was scored and, if it cleared τ, after
// Dedup copied the surviving rows out. No-op without an arena.
func (e *Engine) Release(t *Table) {
	a := e.Arena
	if a == nil || t == nil || len(a.free) >= maxArenaTables {
		return
	}
	a.puts += int64(len(t.data))
	a.free = append(a.free, t)
}
