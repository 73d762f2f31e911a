//go:build !race

package store

import (
	"context"
	"testing"

	"planarflow"
)

// TestWarmDoSkipsStats guards the warm path's accounting: once a bundle
// is warm, store.Do allocates what the library query does plus the
// store's own closure, never the bundle Stats snapshot a release used
// to take. (The race detector inflates allocation counts, hence the
// build tag.)
func TestWarmDoSkipsStats(t *testing.T) {
	s := New(Config{})
	g, err := s.RegisterSpec("g", gridSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := planarflow.DistQuery(0, g.N()-1)
	if _, _, err := s.Do(ctx, "g", q); err != nil {
		t.Fatal(err)
	}
	var pg *planarflow.PreparedGraph
	s.With(ctx, "g", func(p *planarflow.PreparedGraph, _ bool) error { pg = p; return nil })

	lib := testing.AllocsPerRun(100, func() { pg.WithContext(ctx).Do(nil, q) })
	stats := testing.AllocsPerRun(100, func() { pg.Stats() })
	store := testing.AllocsPerRun(100, func() { s.Do(ctx, "g", q) })
	if stats == 0 {
		t.Fatal("Stats allocates nothing: this guard cannot see it")
	}
	if extra := store - lib; extra > 1 {
		t.Fatalf("warm store.Do allocates %v, the library query %v: %v extra (a Stats snapshot is %v)",
			store, lib, extra, stats)
	}
}
