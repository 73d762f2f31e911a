//go:build !race

package obs

import (
	"testing"
	"time"
)

// TestFinishAllocFree guards the per-request tracer cost: recording a
// finished span is a fixed-size copy into the ring, with no formatting
// and no allocation, notes or not. (The race detector inflates
// allocation counts, hence the build tag.)
func TestFinishAllocFree(t *testing.T) {
	tr := NewTracer(4, time.Millisecond)
	plain := NewSpan(1, "wire")
	plain.Family, plain.Graph = "dist", "g"
	plain.SetTrace(TraceContext{Hi: 1, Lo: 2, Parent: 3, Hop: 1})
	plain.Add(PhaseExec, time.Microsecond)
	noted := NewSpan(2, "fleet")
	noted.Annotate("member", "m0")
	for name, s := range map[string]*Span{"without notes": plain, "with notes": noted} {
		for _, total := range []time.Duration{time.Microsecond, time.Second} { // fast and slow rings
			if n := testing.AllocsPerRun(100, func() { tr.Finish(s, total, "") }); n != 0 {
				t.Fatalf("Finish %s (total %v) allocates %v per call, want 0", name, total, n)
			}
		}
	}
}
