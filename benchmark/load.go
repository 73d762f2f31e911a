package main

import (
	"context"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
)

// tally accumulates the outcomes of one sender, or of a whole run.
type tally struct {
	answered                 int // correct answers
	attempted, failed, wrong int
	rounds                   int64 // sum of Rounds.Total over correct answers
	firstBad                 string
	tracedLat, plainLat      time.Duration
	tracedN, plainN          int
}

func (t *tally) merge(o *tally) {
	t.answered += o.answered
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	t.rounds += o.rounds
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
	t.tracedLat += o.tracedLat
	t.plainLat += o.plainLat
	t.tracedN += o.tracedN
	t.plainN += o.plainN
}

// check counts one answer, reporting whether it was correct: a failed
// request and an answer that differs from the oracle both count as
// failed, the second also as wrong.
func (t *tally) check(it *item, resp *flowd.QueryResponse, err error, where string) bool {
	t.attempted++
	bad := ""
	switch {
	case err != nil:
		bad = err.Error()
	case !matches(resp, it.want):
		bad = "answer differs from the oracle"
		t.wrong++
	default:
		return true
	}
	t.failed++
	if t.firstBad == "" {
		t.firstBad = where + it.req.Op + " " + it.req.Graph + ": " + bad
	}
	return false
}

// tracer keeps spans in memory for the traced run. While on is false
// no span is recorded, so a run can alternate traced and plain slices.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) newID() uint64 { return tr.ids.Add(1) }

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// loadResult is one measured window; the correct answers' latencies
// are in sm.
type loadResult struct {
	tally
	sm       *samples
	start    time.Time
	elapsed  time.Duration
	heapPeak uint64
}

// query sends one pool item through the fleet front, times it, checks
// the answer, keeps a correct answer's latency in sm and records a span
// when tracing is on.
func query(ctx context.Context, fc *fleet.Client, it *item, tr *tracer, t *tally, sm *samples) {
	traced := tr != nil && tr.on.Load()
	t0 := time.Now()
	resp, err := fc.Query(ctx, it.req)
	t1 := time.Now()
	if traced {
		id := tr.newID()
		tr.record(span{Name: "load.fleet.query", Trace: id, ID: id, Start: t0.UnixNano(), End: t1.UnixNano()})
	}
	if !t.check(it, resp, err, "") {
		return
	}
	d := t1.Sub(t0)
	sm.add(d, t1.UnixNano())
	t.answered++
	t.rounds += resp.Rounds.Total
	if traced {
		t.tracedLat += d
		t.tracedN++
	} else {
		t.plainLat += d
		t.plainN++
	}
}

// drive runs the workload's closed loop for dur against the pool,
// sampling the heap throughout. With tr set, tracing flips on and off
// every 250ms.
func drive(ctx context.Context, w workload, fc *fleet.Client, pool []item, dur time.Duration, tr *tracer, sm *samples) *loadResult {
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var peak atomic.Uint64
	bg.Add(1)
	go func() {
		defer bg.Done()
		sampleHeap(stop, &peak)
	}()
	if tr != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					tr.on.Store(false)
					return
				case <-t.C:
					tr.on.Store(!tr.on.Load())
				}
			}
		}()
	}
	start := time.Now()
	parts := closedLoop(ctx, w, fc, pool, start, dur, tr, sm)
	res := &loadResult{sm: sm, start: start, elapsed: time.Since(start)}
	close(stop)
	bg.Wait()
	res.heapPeak = peak.Load()
	for i := range parts {
		res.merge(&parts[i])
	}
	return res
}

// closedLoop runs callers x inflight senders, each issuing its next
// query as soon as the previous one is answered, until dur has passed,
// and returns each sender's tally.
func closedLoop(ctx context.Context, w workload, fc *fleet.Client, pool []item, start time.Time, dur time.Duration, tr *tracer, sm *samples) []tally {
	end := start.Add(dur)
	var cursor atomic.Int64
	n := w.callers * w.inflight
	parts := make([]tally, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(end) {
				it := &pool[int(cursor.Add(1)-1)%len(pool)]
				query(ctx, fc, it, tr, t, sm)
			}
		}(&parts[k])
	}
	wg.Wait()
	return parts
}

// sampleHeap records the peak of the Go heap's in-use spans (HeapInuse:
// live objects plus their spans' free slots) every 10ms until stop.
func sampleHeap(stop <-chan struct{}, peak *atomic.Uint64) {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		metrics.Read(s)
		if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > peak.Load() {
			peak.Store(v)
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
