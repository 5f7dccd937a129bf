// Package obs is WiClean's dependency-free observability layer: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms, plus
// per-name span aggregates. The spans themselves are the trace spans of
// internal/obs/trace, the one timing primitive: each one folds into the
// aggregate of its name as it ends.
//
// The whole surface is nil-safe: every method on a nil *Registry (and on
// the nil metric handles it returns) is a no-op, so instrumented packages
// call it unconditionally and library users who never attach a registry
// pay nothing beyond a nil check. A populated registry serializes to JSON
// (Snapshot) and to the Prometheus text exposition format
// (WritePrometheus); see the HTTP helpers for the /metrics endpoint and
// /debug/vars.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*spanStat{},
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by delta; nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.n.Add(delta)
	}
}

// Inc increments the counter by one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an atomically updated float64 level.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v; nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta; nil-safe.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current level; nil-safe (0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter returns (creating on first use) the named counter. A nil
// registry returns a nil, no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. A nil registry
// returns a nil, no-op gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}
