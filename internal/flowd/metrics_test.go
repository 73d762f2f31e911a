package flowd

import (
	"context"
	"reflect"
	"testing"
	"time"

	"planarflow/internal/store"
)

// TestMetricszServesStatsTable runs a fixed script against a daemon on a
// fresh registry and checks that /metricsz carries every number the
// retired /statsz payload did, with the expected values: store counters
// and gauges equal to store.Snapshot, per-op traffic counters, the write
// error count, the server's wire counters equal to Wire().Stats(),
// uptime and latency histograms, plus the per-graph rows on
// GET /v1/graphs.
func TestMetricszServesStatsTable(t *testing.T) {
	hc, s, addr, _ := newWireDaemon(t, store.Config{SpillDir: t.TempDir()}, "")
	ctx := context.Background()
	reg, err := hc.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 5, Cols: 5, Seed: 2, WLo: 1, WHi: 9, CLo: 1, CHi: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := hc.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: i, V: reg.N - 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hc.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 0, V: reg.N - 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Query(ctx, QueryRequest{Graph: "g", Op: "maxflow", U: 2, V: 2}); err == nil {
		t.Fatal("same-vertex maxflow did not error")
	}
	if _, err := hc.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: []BatchQuery{
		{Op: "dist", U: 1, V: 2}, {Op: "girth"},
	}}); err != nil {
		t.Fatal(err)
	}
	if snap, err := hc.Snapshot(ctx, "g"); err != nil || snap.Written != 1 {
		t.Fatalf("snapshot: %+v, %v", snap, err)
	}
	wc := NewWireClient("tcp", addr, WireOptions{PoolSize: 1})
	defer wc.Close()
	if err := wc.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := hc.WithWireTransport(wc).Query(ctx, QueryRequest{Graph: "g", Op: "dualdist", U: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	// A two-entry batch frame is a fold the server counts.
	if _, err := wc.QueryBatch(ctx, BatchRequest{Graph: "g", Queries: []BatchQuery{
		{Op: "dualdist", U: 0, V: 2}, {Op: "dualdist", U: 1, V: 2},
	}}); err != nil {
		t.Fatal(err)
	}

	// The wire server bumps its flush counter after the response bytes
	// leave, so wait for a scrape bracketed by two equal snapshots.
	var m map[string]float64
	ws := s.Wire().Stats()
	for i := 0; ; i++ {
		m = scrape(t, hc)
		after := s.Wire().Stats()
		if after == ws {
			break
		}
		if i == 100 {
			t.Fatalf("wire counters never settled: %+v then %+v", ws, after)
		}
		ws = after
		time.Sleep(10 * time.Millisecond)
	}
	snap := s.Store().Snapshot()

	want := map[string]float64{
		"flowd_graphs":                  float64(snap.Graphs),
		"flowd_resident_graphs":         float64(snap.Resident),
		"flowd_store_bytes":             float64(snap.Bytes),
		"flowd_store_max_bytes":         float64(snap.MaxBytes),
		"store_hits_total":              float64(snap.Hits),
		"store_misses_total":            float64(snap.Misses),
		"store_builds_total":            float64(snap.Builds),
		"store_evictions_total":         float64(snap.Evictions),
		"store_build_rounds_total":      float64(snap.BuildRounds),
		"store_snapshot_writes_total":   float64(snap.SnapshotWrites),
		"store_snapshot_restores_total": float64(snap.SnapshotRestores),
		"store_snapshot_errors_total":   float64(snap.SnapshotErrors),
		"store_peer_restores_total":     float64(snap.PeerRestores),

		`flowd_queries_total{family="dist"}`:         4,
		`flowd_query_errors_total{family="dist"}`:    0,
		`flowd_queries_total{family="maxflow"}`:      2,
		`flowd_query_errors_total{family="maxflow"}`: 1,
		`flowd_queries_total{family="girth"}`:        1,
		`flowd_queries_total{family="dualdist"}`:     3,
		"flowd_write_errors_total":                   0,

		`wire_conns_open{role="server"}`:              float64(ws.ConnsOpen),
		`wire_conns_total{role="server"}`:             float64(ws.ConnsTotal),
		`wire_frames_in_total{role="server"}`:         float64(ws.FramesIn),
		`wire_frames_out_total{role="server"}`:        float64(ws.FramesOut),
		`wire_bytes_in_total{role="server"}`:          float64(ws.BytesIn),
		`wire_bytes_out_total{role="server"}`:         float64(ws.BytesOut),
		`wire_flushes_total{role="server"}`:           float64(ws.Flushes),
		`wire_coalesced_batches_total{role="server"}`: float64(ws.CoalescedBatches),
		`wire_coalesced_queries_total{role="server"}`: float64(ws.CoalescedQueries),
		`wire_coalesced_max{role="server"}`:           float64(ws.CoalescedMax),

		`flowd_request_seconds_count{family="dist",transport="http"}`:     3,
		`flowd_request_seconds_count{family="batch",transport="http"}`:    1,
		`flowd_request_seconds_count{family="dualdist",transport="wire"}`: 1,
		`flowd_request_seconds_count{family="batch",transport="wire"}`:    1,
	}
	for name, v := range want {
		got, ok := m[name]
		if !ok {
			t.Errorf("%s missing from /metricsz", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	// The script must have moved every counter it is meant to exercise,
	// or the equalities above prove nothing.
	if snap.Hits == 0 || snap.Misses == 0 || snap.Builds == 0 || snap.BuildRounds == 0 || snap.SnapshotWrites != 1 {
		t.Fatalf("script left store counters idle: %+v", snap)
	}
	if ws.FramesIn < 3 || ws.ConnsOpen != 1 || ws.Flushes == 0 || ws.CoalescedMax != 2 {
		t.Fatalf("script left wire counters idle: %+v", ws)
	}
	for _, op := range []string{"maxflow", "girth"} {
		if m[`flowd_query_rounds_total{family="`+op+`"}`] <= 0 {
			t.Errorf("flowd_query_rounds_total{family=%q} not positive", op)
		}
	}
	// hit_rate is derived from the two counters it was computed from.
	if hits, misses := m["store_hits_total"], m["store_misses_total"]; hits/(hits+misses) != snap.HitRate() {
		t.Errorf("derived hit rate %g, store says %g", hits/(hits+misses), snap.HitRate())
	}
	if m["flowd_uptime_seconds"] <= 0 {
		t.Errorf("flowd_uptime_seconds = %g", m["flowd_uptime_seconds"])
	}

	// The per-graph rows moved to GET /v1/graphs.
	gs, err := hc.Graphs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs, snap.PerGraph) {
		t.Fatalf("GET /v1/graphs %+v, store %+v", gs, snap.PerGraph)
	}
}
