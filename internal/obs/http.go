package obs

import (
	"expvar"
	"net/http"
	"sync"
)

// MetricsHandler serves the registry in the Prometheus text exposition
// format — mount it at GET /metrics. Nil-safe: a nil registry serves an
// empty exposition.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w)
	})
}

var publishOnce sync.Map // expvar name -> struct{}, guards duplicate Publish panics

// PublishExpvar exposes the registry's snapshot under the given expvar
// name, bridging it onto GET /debug/vars. Publishing the same name twice
// (e.g. from tests) is a no-op instead of the expvar duplicate panic.
// Nil-safe: a nil registry publishes empty snapshots.
func (r *Registry) PublishExpvar(name string) {
	if _, loaded := publishOnce.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
