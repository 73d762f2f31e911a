package store

// Telemetry handles, resolved once at init: every serving-path record is
// atomic bumps on these, never a registry lookup.

import "planarflow/internal/obs"

var (
	mQueueWait = obs.Default().Histogram("store_queue_wait_seconds",
		"Time spent waiting for the store registry lock on acquire.")
	mAcquire = obs.Default().Histogram("store_acquire_seconds",
		"Bundle acquire latency: registry lookup, LRU touch, pin, and any disk-tier restore a miss triggers.")
	mRestore = obs.Default().Histogram("store_restore_seconds",
		"Disk-tier snapshot restore latency (successful restores only).")
	mSpillWrite = obs.Default().Histogram("store_spill_write_seconds",
		"Disk-tier snapshot write latency (evictions and explicit snapshots).")
)

// RegisterObs exposes the store's aggregate counters on r as
// store_<name>_total series, read from Totals at scrape time: the
// serving path keeps bumping plain fields under the store lock, and
// each event is counted exactly once. Re-registering on the same
// registry rebinds the series to s.
func (s *Store) RegisterObs(r *obs.Registry) {
	for _, c := range []struct {
		name, help string
		get        func(Stats) int64
	}{
		{"hits", "Bundle acquisitions that found the bundle resident.", func(t Stats) int64 { return t.Hits }},
		{"misses", "Bundle acquisitions that had to make the bundle resident.", func(t Stats) int64 { return t.Misses }},
		{"builds", "Substrates built, across rebuilds after eviction.", func(t Stats) int64 { return t.Builds }},
		{"evictions", "Resident bundles evicted under the memory budget.", func(t Stats) int64 { return t.Evictions }},
		{"build_rounds", "Simulated rounds charged by every substrate build.", func(t Stats) int64 { return t.BuildRounds }},
		{"snapshot_writes", "Snapshots written to the disk tier.", func(t Stats) int64 { return t.SnapshotWrites }},
		{"snapshot_restores", "Misses and boot restores served from the disk tier.", func(t Stats) int64 { return t.SnapshotRestores }},
		{"snapshot_errors", "Disk-tier snapshot writes or decodes that failed.", func(t Stats) int64 { return t.SnapshotErrors }},
		{"peer_restores", "Bundles installed from peer-fetched snapshot bytes.", func(t Stats) int64 { return t.PeerRestores }},
	} {
		r.CounterFunc("store_"+c.name+"_total", c.help, func() int64 { return c.get(s.Totals()) })
	}
}
