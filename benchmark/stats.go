package main

import (
	"math"
	"math/rand/v2"
	"regexp"
	"sort"
	"time"
)

// percentile returns the q-th quantile (0 < q <= 1) of samples by nearest
// rank, with the number of samples ranked above it. The input is not
// modified. An empty input gives (0, 0).
func percentile(samples []time.Duration, q float64) (v time.Duration, above int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty input. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sliceStats is the window's timing, made steady against short host
// stalls: the window is cut into k equal slices by completion time and
// each figure is the median of the slices' figures.
type sliceStats struct {
	qps, p50, p99 float64 // per second, ms, ms
	minN          int     // samples in the smallest slice
	minAbove99    int     // fewest samples above a slice's p99

	perQPS, perP50, perP99 []float64 // each slice's figures, in order
}

// sliced computes sliceStats over k slices for samples lat completed at
// done (Unix ns) in the window [start, start+dur); a completion after
// the window counts in the last slice.
func sliced(lat []time.Duration, done []int64, start time.Time, dur time.Duration, k int) sliceStats {
	width := int64(dur) / int64(k)
	parts := make([][]time.Duration, k)
	for i, d := range lat {
		j := max(0, min(k-1, int((done[i]-start.UnixNano())/width)))
		parts[j] = append(parts[j], d)
	}
	st := sliceStats{minN: len(lat), minAbove99: len(lat)}
	qps, p50, p99 := make([]float64, 0, k), make([]float64, 0, k), make([]float64, 0, k)
	for _, part := range parts {
		q50, _ := percentile(part, 0.50)
		q99, above := percentile(part, 0.99)
		qps = append(qps, float64(len(part))/(float64(width)/1e9))
		p50 = append(p50, ms(q50))
		p99 = append(p99, ms(q99))
		st.minN = min(st.minN, len(part))
		st.minAbove99 = min(st.minAbove99, above)
	}
	st.qps, st.p50, st.p99 = median(qps), median(p50), median(p99)
	st.perQPS, st.perP50, st.perP99 = qps, p50, p99
	return st
}

// zipf samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s; s = 0 is
// uniform.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) { // rounding at the top of the cdf
		i = len(z.cdf) - 1
	}
	return i
}

// span is one timed call recorded by the traced run: every call the
// benchmark makes into a layer is a child of the root span of its trace.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTimes gives each span that has children its duration minus its
// children's: the time it spent outside the calls it made.
func selfTimes(spans []span) map[uint64]time.Duration {
	covered := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := make(map[uint64]time.Duration, len(covered))
	for _, s := range spans {
		if c, ok := covered[s.ID]; ok {
			self[s.ID] = s.dur() - c
		}
	}
	return self
}

// ladderSelf derives per-rung times from ladder spans. rungs lists the
// rung span names bottom up; each call of a rung above the bottom has
// as children the part of it spent in the rung below, and its self time
// is what selfTimes gives it. Per replayed query (trace) a rung's time
// and self time are the medians over its calls; the bottom rung's self
// time is its time. Each result is the mean over the traces that hold a
// call of every rung, with children wherever needed.
func ladderSelf(spans []span, rungs []string) (total, self map[string]time.Duration, traces int) {
	idx := make(map[string]int, len(rungs))
	for i, r := range rungs {
		idx[r] = i
	}
	own := selfTimes(spans)
	type calls struct{ durs, selfs [][]float64 }
	byTrace := map[uint64]*calls{}
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			continue
		}
		c := byTrace[s.Trace]
		if c == nil {
			c = &calls{durs: make([][]float64, len(rungs)), selfs: make([][]float64, len(rungs))}
			byTrace[s.Trace] = c
		}
		c.durs[i] = append(c.durs[i], float64(s.dur()))
		switch v, ok := own[s.ID]; {
		case i == 0:
			c.selfs[i] = append(c.selfs[i], float64(s.dur()))
		case ok:
			c.selfs[i] = append(c.selfs[i], float64(v))
		}
	}
	sumT := make([]float64, len(rungs))
	sumS := make([]float64, len(rungs))
	for _, c := range byTrace {
		complete := true
		for i := range rungs {
			complete = complete && len(c.selfs[i]) > 0
		}
		if !complete {
			continue
		}
		traces++
		for i := range rungs {
			sumT[i] += median(c.durs[i])
			sumS[i] += median(c.selfs[i])
		}
	}
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	if traces == 0 {
		return total, self, 0
	}
	for i, r := range rungs {
		total[r] = time.Duration(sumT[i] / float64(traces))
		self[r] = time.Duration(sumS[i] / float64(traces))
	}
	return total, self, traces
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is a usable metric or workload name: a
// letter or digit, then at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return metricName.MatchString(s) }
