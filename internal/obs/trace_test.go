package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestTraceRingEviction fills a small ring past capacity and checks
// newest-first ordering with the oldest spans evicted.
func TestTraceRingEviction(t *testing.T) {
	tr := NewTracer(4, time.Hour)
	for i := 1; i <= 10; i++ {
		s := NewSpan(uint64(i), "http")
		s.Family = fmt.Sprintf("q%d", i)
		tr.Finish(s, time.Duration(i)*time.Millisecond, "")
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, want := range []uint64{10, 9, 8, 7} {
		if got[i].ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d (order: %+v)", i, got[i].ID, want, got)
		}
	}
	if len(tr.Slow()) != 0 {
		t.Fatal("nothing crossed the slow threshold")
	}
}

// TestTraceRingPartial checks newest-first order before the ring wraps.
func TestTraceRingPartial(t *testing.T) {
	tr := NewTracer(8, time.Hour)
	for i := 1; i <= 3; i++ {
		tr.Finish(NewSpan(uint64(i), "wire"), time.Millisecond, "")
	}
	got := tr.Recent()
	if len(got) != 3 || got[0].ID != 3 || got[2].ID != 1 {
		t.Fatalf("partial ring order wrong: %+v", got)
	}
}

// TestSlowLog checks threshold classification and the slow ring.
func TestSlowLog(t *testing.T) {
	tr := NewTracer(16, 10*time.Millisecond)
	if tr.Finish(NewSpan(1, "http"), 2*time.Millisecond, "") {
		t.Fatal("fast span flagged slow")
	}
	s := NewSpan(2, "http")
	s.Family = "maxflow"
	s.Add(PhaseBuild, 40*time.Millisecond)
	if !tr.Finish(s, 50*time.Millisecond, "") {
		t.Fatal("slow span not flagged")
	}
	slow := tr.Slow()
	if len(slow) != 1 || slow[0].ID != 2 {
		t.Fatalf("slow log = %+v", slow)
	}
	if slow[0].PhasesMS["build"] != 40 {
		t.Fatalf("slow span lost phase attribution: %+v", slow[0].PhasesMS)
	}
	if tr.SlowCount() != 1 {
		t.Fatalf("SlowCount = %d", tr.SlowCount())
	}
}

// TestSpanContext checks context plumbing and nil-span tolerance.
func TestSpanContext(t *testing.T) {
	if SpanFromContext(context.Background()) != nil {
		t.Fatal("empty context yielded a span")
	}
	var nilSpan *Span
	nilSpan.Add(PhaseExec, time.Second) // must not panic
	nilSpan.MarkSince(PhaseExec, time.Now())
	if nilSpan.PhaseNS(PhaseExec) != 0 {
		t.Fatal("nil span reported phase time")
	}

	s := NewSpan(7, "wire")
	ctx := ContextWithSpan(context.Background(), s)
	got := SpanFromContext(ctx)
	if got != s {
		t.Fatal("span did not round-trip through context")
	}
	got.Add(PhaseDecode, 3*time.Millisecond)
	got.Add(PhaseDecode, 2*time.Millisecond)
	if s.PhaseNS(PhaseDecode) != int64(5*time.Millisecond) {
		t.Fatalf("phase accumulation = %d", s.PhaseNS(PhaseDecode))
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || n == "unknown" || seen[n] {
			t.Fatalf("phase %d name %q invalid or duplicate", p, n)
		}
		seen[n] = true
	}
	if Phase(-1).String() != "unknown" || NumPhases.String() != "unknown" {
		t.Fatal("out-of-range phases must stringify as unknown")
	}
}

// eagerView is the reference formatting: the SpanView a finished span
// reads as, built straight from the live span the way the tracer once
// did at Finish. The rings must serve exactly this, formatted later.
func eagerView(s *Span, total time.Duration, errMsg string) SpanView {
	v := SpanView{
		ID: s.ID, Transport: s.Transport, Family: s.Family,
		Graph: s.Graph, Route: s.Route, Err: errMsg,
		TraceID:     s.TraceID(),
		Hop:         int(s.Hop),
		StartUnixMS: s.Start.UnixMilli(),
		TotalMS:     float64(total.Microseconds()) / 1000,
	}
	if s.SpanID != 0 {
		v.SpanID = fmt.Sprintf("%016x", s.SpanID)
	}
	if s.Parent != 0 {
		v.ParentID = fmt.Sprintf("%016x", s.Parent)
	}
	s.noteMu.Lock()
	if len(s.notes) > 0 {
		v.Notes = append([]string(nil), s.notes...)
	}
	s.noteMu.Unlock()
	for p := Phase(0); p < NumPhases; p++ {
		if ns := s.phases[p].Load(); ns > 0 {
			if v.PhasesMS == nil {
				v.PhasesMS = make(map[string]float64, int(NumPhases))
			}
			v.PhasesMS[p.String()] = float64(ns) / 1e6
		}
	}
	return v
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeferredViewMatchesEager finishes fully populated spans (trace,
// parent, hop, notes, error, several phases; every other one slow) into
// small rings until both wrap, and checks Recent and Slow serve the
// JSON the span read as at Finish — also after the live spans were
// marked and annotated again.
func TestDeferredViewMatchesEager(t *testing.T) {
	const ring = 3
	tr := NewTracer(ring, 10*time.Millisecond)
	var wantRecent, wantSlow []string // oldest first
	var spans []*Span
	for i := 1; i <= 8; i++ {
		s := NewSpan(uint64(i), "fleet")
		s.Family, s.Graph, s.Route = "dualsssp", fmt.Sprintf("g%d", i), "fast"
		s.SetTrace(TraceContext{Hi: 0xabc0 + uint64(i), Lo: 0xdef, Parent: 0x1234500 + uint64(i), Hop: uint8(i % 3)})
		s.Annotate("member", fmt.Sprintf("m%d", i))
		s.Annotate("attempt", "1")
		s.Add(PhaseDecode, time.Duration(i)*1500*time.Nanosecond)
		s.Add(PhaseExec, time.Duration(i)*time.Millisecond+123*time.Microsecond)
		s.Add(PhaseEncode, 7*time.Microsecond)
		total := time.Duration(i)*4*time.Millisecond + 456*time.Microsecond
		errMsg := ""
		if i%2 == 0 {
			errMsg = fmt.Sprintf("store: unknown graph %q", s.Graph)
		}
		want := mustJSON(t, eagerView(s, total, errMsg))
		if slow := tr.Finish(s, total, errMsg); slow != (total >= 10*time.Millisecond) {
			t.Fatalf("span %d: slow = %v at %v", i, slow, total)
		}
		wantRecent = append(wantRecent, want)
		if total >= 10*time.Millisecond {
			wantSlow = append(wantSlow, want)
		}
		spans = append(spans, s)
	}
	for _, s := range spans {
		s.Add(PhaseExec, time.Second)
		s.Add(PhaseWrite, time.Second)
		s.Annotate("late", "1")
	}
	check := func(name string, got []SpanView, want []string) {
		t.Helper()
		if len(want) > ring {
			want = want[len(want)-ring:]
		}
		if len(got) != len(want) {
			t.Fatalf("%s kept %d spans, want %d", name, len(got), len(want))
		}
		for i, v := range got {
			if g, w := mustJSON(t, v), want[len(want)-1-i]; g != w {
				t.Fatalf("%s[%d]:\n got %s\nwant %s", name, i, g, w)
			}
		}
	}
	check("recent", tr.Recent(), wantRecent)
	check("slow", tr.Slow(), wantSlow)
	if len(wantSlow) <= ring {
		t.Fatalf("slow ring never wrapped (%d slow spans)", len(wantSlow))
	}
	if want := int64(8 - ring + len(wantSlow) - ring); tr.Dropped() != want {
		t.Fatalf("dropped %d, want %d", tr.Dropped(), want)
	}
}

// BenchmarkTracerFinish is the per-request tracer cost: one finished
// span recorded into a wrapped ring.
func BenchmarkTracerFinish(b *testing.B) {
	tr := NewTracer(DefaultTraceRing, time.Hour)
	s := NewSpan(1, "wire")
	s.Family, s.Graph, s.Route = "dualsssp", "g", "fast"
	s.SetTrace(NewTrace())
	s.Add(PhaseDecode, time.Microsecond)
	s.Add(PhaseAcquire, time.Microsecond)
	s.Add(PhaseExec, 2*time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Finish(s, 5*time.Microsecond, "")
	}
}
