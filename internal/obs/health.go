package obs

import (
	"net/http"
	"sync/atomic"
)

// Health is the liveness/readiness state a daemon exposes. Liveness is
// unconditional — if the process can serve the handler it is alive.
// Readiness starts false and flips true once warm start (checkpoint
// recovery or training) has finished, so an orchestrator keeps traffic
// away from a replica that is still rebuilding forecaster state.
type Health struct {
	ready atomic.Bool
}

// NewHealth returns a Health that is alive but not yet ready.
func NewHealth() *Health { return &Health{} }

// SetReady flips the readiness state.
func (h *Health) SetReady(ready bool) { h.ready.Store(ready) }

// LiveHandler serves /healthz: always 200 while the process runs.
func (h *Health) LiveHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
}

// ReadyHandler serves /readyz: 503 until SetReady(true), then 200.
func (h *Health) ReadyHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !h.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte("warming\n"))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})
}
