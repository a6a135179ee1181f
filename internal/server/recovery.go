// Restart support: what the server does when it comes back up on a
// durable store. Recovery itself belongs to the storage layer
// (storage.Recover) and catalog bootstrap to the engine (OpenAt); the
// server's share is exporting what recovery did as counters and a
// startup-trace span. §3.2's "temp tables are dropped at query end"
// holds across a crash with no startup sweep: the engine keeps temp
// tables on unlogged files, which no restart sees.
package server

import (
	"tango/internal/storage"
	"tango/internal/telemetry"
)

// RegisterRecovery exports one restart's recovery outcome into the
// registry as monotonic totals. The counters are set once at startup
// (recovery happens before the server accepts traffic), matching the
// _total naming so dashboards can rate() them across restarts.
func RegisterRecovery(reg *telemetry.Registry, stats *storage.RecoveryStats) {
	if reg == nil || stats == nil {
		return
	}
	reg.Counter("tango_recovery_replayed_records_total", nil).Add(stats.ReplayedRecords)
	reg.Counter("tango_recovery_torn_tails_total", nil).Add(stats.TornTails)
	reg.Counter("tango_recovery_checksum_failures_total", nil).Add(stats.ChecksumFailures)
	reg.Counter("tango_recovery_repaired_pages_total", nil).Add(stats.RepairedPages)
	reg.Counter("tango_recovery_rolled_back_loads_total", nil).Add(stats.RolledBackLoads)
}

// RecoverySpan renders one restart's recovery outcome as a span for
// the startup trace: duration from the recovery pass itself, WAL
// volume and damage tallies as attributes.
func RecoverySpan(stats *storage.RecoveryStats) *telemetry.Span {
	if stats == nil {
		return nil
	}
	sp := telemetry.NewSpan("recovery")
	sp.SetInt("wal_bytes", stats.WALBytes)
	sp.SetInt("replayed_records", stats.ReplayedRecords)
	sp.SetInt("torn_tails", stats.TornTails)
	sp.SetInt("checksum_failures", stats.ChecksumFailures)
	sp.SetInt("repaired_pages", stats.RepairedPages)
	sp.SetInt("rolled_back_loads", stats.RolledBackLoads)
	sp.AddChild("storage_recover", stats.Duration)
	sp.Finish()
	return sp
}
