//go:build !race

package fleet

import (
	"context"
	"testing"
)

// TestWithOwnerAllocs guards the routing loop's per-call allocations:
// the root and attempt spans with their trace contexts and the
// attempt's member note. A note that repeats what the span tree already
// records (the owner on the root, the attempt index) costs two
// allocations per routed query and fails this guard.
func TestWithOwnerAllocs(t *testing.T) {
	c, err := New([]Member{{Name: "a", HTTP: "http://127.0.0.1:1"}}, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	noop := func(context.Context, *memberState) (any, error) { return nil, nil }
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.withOwner(ctx, "g", "dist", noop); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 7 {
		t.Fatalf("withOwner: %.0f allocs per routed call, want <= 7", allocs)
	}
}
