// Package obs is the reproduction's dependency-free observability
// core: a counter/gauge/histogram metrics registry that renders the
// Prometheus text exposition format, an in-process span tracer that
// keeps per-campaign span trees, and an HTTP access-log middleware
// that writes through log/slog. Everything is safe for concurrent use
// and built on the standard library only, so the fault-simulation
// engines and the campaign service can be instrumented without pulling
// a client library into the module.
package obs

// Label is one metric label or span attribute.
type Label struct {
	Key, Value string
}

// L builds a Label; it keeps call sites short.
func L(key, value string) Label { return Label{Key: key, Value: value} }
