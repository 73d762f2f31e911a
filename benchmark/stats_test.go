package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"
)

func durations(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n - i) // descending: the helper must sort
		}
		return s
	}
	cases := []struct {
		name      string
		in        []time.Duration
		q         float64
		want      time.Duration
		wantAbove int
	}{
		{"empty", nil, 0.99, 0, 0},
		{"single", durations(7), 0.5, 7, 0},
		{"single p99", durations(7), 0.99, 7, 0},
		{"median of 4 is the 2nd", durations(4, 1, 3, 2), 0.5, 2, 2},
		{"p50 of 100", seq(100), 0.50, 50, 50},
		{"p99 of 100", seq(100), 0.99, 99, 1},
		{"p99 of 1000 leaves 10 above", seq(1000), 0.99, 990, 10},
		{"p100 is the max", seq(10), 1, 10, 0},
	}
	for _, c := range cases {
		got, above := percentile(c.in, c.q)
		if got != c.want || above != c.wantAbove {
			t.Errorf("%s: got (%v, %d above), want (%v, %d above)", c.name, got, above, c.want, c.wantAbove)
		}
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	in := durations(5, 3, 9, 1)
	percentile(in, 0.5)
	if !slices.Equal(in, durations(5, 3, 9, 1)) {
		t.Fatalf("input reordered: %v", in)
	}
}

func TestMedian(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("empty: %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

func TestZipfUniformAtZeroSkew(t *testing.T) {
	const n, draws = 8, 80000
	rng := rand.New(rand.NewPCG(1, 2))
	z := newZipf(n, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.sample(rng)]++
	}
	for k, c := range counts {
		if share := float64(c) / draws; share < 0.115 || share > 0.135 {
			t.Errorf("rank %d drawn %.4f of the time, want about 0.125", k, share)
		}
	}
}

func TestZipfFollowsPowerLaw(t *testing.T) {
	const n, draws = 16, 200000
	rng := rand.New(rand.NewPCG(3, 4))
	z := newZipf(n, 1.0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.sample(rng)
		if k < 0 || k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(k) is proportional to 1/(k+1): rank 0 is drawn twice as often as
	// rank 1 and four times as often as rank 3.
	if r := float64(counts[0]) / float64(counts[1]); r < 1.9 || r > 2.1 {
		t.Errorf("P(0)/P(1) = %.3f, want about 2", r)
	}
	if r := float64(counts[0]) / float64(counts[3]); r < 3.8 || r > 4.2 {
		t.Errorf("P(0)/P(3) = %.3f, want about 4", r)
	}
	if z.cdf[n-1] != 1 {
		t.Errorf("cdf ends at %v, want 1", z.cdf[n-1])
	}
}

func TestZipfSameSeedSameDraws(t *testing.T) {
	z := newZipf(10, 1.2)
	a, b := rand.New(rand.NewPCG(9, 9)), rand.New(rand.NewPCG(9, 9))
	for i := 0; i < 1000; i++ {
		if x, y := z.sample(a), z.sample(b); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "fleet", Trace: 1, ID: 1, Start: 0, End: 100},
		{Name: "attempt", Trace: 1, ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "attempt", Trace: 1, ID: 3, Parent: 1, Start: 50, End: 90},
		{Name: "leaf", Trace: 1, ID: 4, Parent: 2, Start: 12, End: 30},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 30, 2: 12}
	if len(self) != len(want) {
		t.Fatalf("self times for %d spans, want %d (only spans with children)", len(self), len(want))
	}
	for id, d := range want {
		if self[id] != d {
			t.Errorf("span %d: self %v, want %v", id, self[id], d)
		}
	}
}

func TestLadderSelfSubtractsTheRungBelow(t *testing.T) {
	const us = int64(time.Microsecond)
	rungs := []string{"lib", "store", "wire"}
	var spans []span
	id := uint64(100)
	// call adds one rung call of duration d and, when below > 0, a child
	// for the part of it spent in the rung below.
	call := func(trace uint64, name string, d, below int64) {
		id++
		spans = append(spans, span{Name: name, Trace: trace, ID: id, Parent: trace, Start: 0, End: d * us})
		if below > 0 {
			parent := id
			id++
			spans = append(spans, span{Name: name + ".below", Trace: trace, ID: id, Parent: parent, Start: 0, End: below * us})
		}
	}
	spans = append(spans, span{Name: "ladder", Trace: 1, ID: 1, Start: 0, End: 1000 * us}) // roots are not rungs
	call(1, "lib", 10, 0)
	call(1, "lib", 8, 0)
	call(1, "store", 15, 12) // self 3
	call(1, "store", 32, 20) // self 12
	call(1, "wire", 100, 15) // self 85
	call(1, "wire", 160, 30) // self 130
	call(2, "lib", 20, 0)
	call(2, "store", 30, 25)
	call(2, "wire", 100, 30)
	call(3, "lib", 5, 0) // trace 3 never reached the wire rung
	call(3, "store", 9, 4)
	call(4, "lib", 5, 0) // trace 4's store call has no child
	call(4, "store", 9, 0)
	call(4, "wire", 50, 9)

	total, self, traces := ladderSelf(spans, rungs)
	if traces != 2 {
		t.Fatalf("traces = %d, want 2 (incomplete ones are skipped)", traces)
	}
	// Medians per trace, then the mean over traces 1 and 2:
	// lib total 9 and 20; store total 23.5 and 30, self 7.5 and 5;
	// wire total 130 and 100, self 107.5 and 70.
	wantTotal := map[string]float64{"lib": 14.5, "store": 26.75, "wire": 115}
	wantSelf := map[string]float64{"lib": 14.5, "store": 6.25, "wire": 88.75}
	for _, r := range rungs {
		if got := float64(total[r]) / float64(us); got != wantTotal[r] {
			t.Errorf("%s: total %vus, want %vus", r, got, wantTotal[r])
		}
		if got := float64(self[r]) / float64(us); got != wantSelf[r] {
			t.Errorf("%s: self %vus, want %vus", r, got, wantSelf[r])
		}
	}
}

func TestLadderSelfWithNoCompleteTrace(t *testing.T) {
	spans := []span{{Name: "lib", Trace: 1, ID: 2, Parent: 1, Start: 0, End: 5}}
	if _, _, traces := ladderSelf(spans, []string{"lib", "store"}); traces != 0 {
		t.Fatalf("traces = %d, want 0", traces)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"p50_ms", "store.hit_rate", "artifact.build_ms.dual-label", "1x", "a"} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "p99%", strings.Repeat("a", 65)} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestMixOpsKeepsTheMixInEveryBlock(t *testing.T) {
	for _, w := range workloads {
		total := 0
		for _, m := range w.mix {
			total += int(math.Round(m.share * mixBlock))
		}
		if total != mixBlock {
			t.Errorf("%s: mix shares make %d of a %d-query block", w.name, total, mixBlock)
		}
	}
	rng := rand.New(rand.NewPCG(7, 8))
	ops := mixOps(rng, pointMix, 1010)
	if len(ops) != 1010 {
		t.Fatalf("%d ops, want 1010", len(ops))
	}
	want := map[string]int{"dist": 10, "dualdist": 5, "dualsssp": 4, "girth": 1}
	for b := 0; b+mixBlock <= len(ops); b += mixBlock {
		count := map[string]int{}
		for _, op := range ops[b : b+mixBlock] {
			count[op]++
		}
		for op, n := range want {
			if count[op] != n {
				t.Fatalf("block at %d: %d %s, want %d", b, count[op], op, n)
			}
		}
	}
}

func TestFlowPairsAreDistinct(t *testing.T) {
	w, _ := workloadByName("solve")
	g, err := w.spec(1, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 20000; i++ {
		for _, op := range []string{"maxflow", "minstcut"} {
			req := draw(rng, g, 0, op)
			if req.U == req.V || req.U < 0 || req.V < 0 || req.U >= g.N() || req.V >= g.N() {
				t.Fatalf("%s drew s=%d t=%d on %d vertices", op, req.U, req.V, g.N())
			}
		}
	}
}

func TestSlicedTakesMediansOverSlices(t *testing.T) {
	start := time.Unix(100, 0)
	dur := 10 * time.Second
	// 5500 answers spread evenly over the window; the middle fifth
	// is a stall where every answer takes 50ms, elsewhere 1ms.
	var lat []time.Duration
	var done []int64
	for i := 0; i < 5500; i++ {
		at := time.Duration(i) * dur / 5500
		d := time.Millisecond
		if at >= 4*time.Second && at < 6*time.Second {
			d = 50 * time.Millisecond
		}
		lat = append(lat, d)
		done = append(done, start.Add(at).UnixNano())
	}
	st := sliced(lat, done, start, dur, 5)
	if st.minN != 1100 || st.minAbove99 != 11 {
		t.Fatalf("smallest slice %d, above p99 %d; want 1100 and 11", st.minN, st.minAbove99)
	}
	if st.p50 != 1 || st.p99 != 1 || st.qps != 550 {
		t.Errorf("p50 %v p99 %v qps %v; want 1ms, 1ms and 550/s (the stalled slice is outvoted)", st.p50, st.p99, st.qps)
	}
	whole := sliced(lat, done, start, dur, 1)
	if want, _ := percentile(lat, 0.99); whole.p99 != ms(want) || whole.qps != 550 || whole.minN != 5500 {
		t.Errorf("one slice: %+v, want the whole window's p99 %v", whole, ms(want))
	}
}

func TestSlicedCountsLateAnswersInTheLastSlice(t *testing.T) {
	start := time.Unix(0, 0)
	lat := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	done := []int64{start.Add(time.Second).UnixNano(), start.Add(11 * time.Second).UnixNano()}
	if st := sliced(lat, done, start, 10*time.Second, 2); st.minN != 1 {
		t.Errorf("want one answer in each slice, got %+v", st)
	}
}
