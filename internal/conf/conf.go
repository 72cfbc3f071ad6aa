// Package conf holds the configuration knobs every networked component of
// proxdisc grew independently — telemetry sink, diagnostic logger, retry
// backoff — as one embeddable struct. netserver.Config, FollowerConfig and
// client.Config embed Common.
package conf

import (
	"time"

	"proxdisc/internal/telemetry"
)

// Common is the shared slice of component configuration.
type Common struct {
	// Telemetry, when set, receives the component's operational metrics.
	// All components tolerate nil (metrics become no-ops).
	Telemetry *telemetry.Registry
	// Logger receives diagnostics; nil silences them.
	Logger func(format string, args ...any)
	// Backoff is the initial pause before a reconnect (a follower's
	// stream, a client's subscription resubscribing), doubling per attempt up to each
	// component's cap. Zero means the component default.
	Backoff time.Duration
}

// ResolveLogger returns the configured logger, or a silent one — never nil.
func (c Common) ResolveLogger() func(format string, args ...any) {
	if c.Logger != nil {
		return c.Logger
	}
	return func(string, ...any) {}
}

// ResolveBackoff returns the configured backoff, or def when unset.
func (c Common) ResolveBackoff(def time.Duration) time.Duration {
	if c.Backoff > 0 {
		return c.Backoff
	}
	return def
}
