// Package checkpoint stands in for an allowlisted wall-clock-facing package
// (checkpoint, httpapi, cmd/*, examples/*): the analyzer must stay silent
// here.
//
// ok: no diagnostics expected
package checkpoint

import "time"

// Now is this package's whole job.
func Now() time.Time { return time.Now() }

// Uptime reads the wall clock twice, and that is fine here.
func Uptime(start time.Time) time.Duration { return time.Since(start) }

// Ticker backs a periodic checkpoint loop.
func Ticker(d time.Duration) *time.Ticker { return time.NewTicker(d) }
