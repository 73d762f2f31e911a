package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"planarflow"
	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/wire"
)

// Histograms and counters on obs.Default(). They pool every replica in
// the process (and the oracle, for the substrate builds).
var (
	procQueueWait  = obs.Default().Histogram("store_queue_wait_seconds", "")
	procAcquire    = obs.Default().Histogram("store_acquire_seconds", "")
	procRestore    = obs.Default().Histogram("store_restore_seconds", "")
	procSpillWrite = obs.Default().Histogram("store_spill_write_seconds", "")
	procWriteQueue = obs.Default().Histogram("wire_write_queue_seconds", "")
	procRowHits    = obs.Default().Counter("decode_row_hits_total", "")
	procRowMisses  = obs.Default().Counter("decode_row_misses_total", "")
)

var (
	memoFamilies   = []string{"girth", "dirgirth", "globalmincut"}
	decodeFamilies = []string{"dualsssp", "girth", "dirgirth", "globalmincut"}
	substrateKinds = []string{"bdd", "dual-label", "primal-label"}
)

// counters is one reading of every counter the per-layer metrics are
// deltas of.
type counters struct {
	phase                                   [obs.NumPhases]obs.Snapshot // summed over replica registries
	queueWait, acquire, restore, spillWrite obs.Snapshot
	writeQueue, decodeMiss                  obs.Snapshot
	build                                   map[string]obs.Snapshot
	rowHits, rowMisses, memoHits, memoMiss  int64

	hits, misses, evictions, restores, builds int64 // summed store.Stats
	wire                                      wire.Stats
	fleet                                     fleet.Stats
	totalAlloc, numGC, pauseNS                uint64
}

func readCounters(r *rig) counters {
	var c counters
	def := obs.Default()
	c.queueWait = procQueueWait.Snapshot()
	c.acquire = procAcquire.Snapshot()
	c.restore = procRestore.Snapshot()
	c.spillWrite = procSpillWrite.Snapshot()
	c.writeQueue = procWriteQueue.Snapshot()
	c.rowHits, c.rowMisses = procRowHits.Value(), procRowMisses.Value()
	for _, f := range memoFamilies {
		c.memoHits += def.Counter("decode_memo_hits_total", "", obs.L("family", f)).Value()
		c.memoMiss += def.Counter("decode_memo_misses_total", "", obs.L("family", f)).Value()
	}
	for _, f := range decodeFamilies {
		c.decodeMiss.Merge(def.Histogram("decode_seconds", "", obs.L("family", f)).Snapshot())
	}
	c.build = buildHists()
	for _, rep := range r.reps {
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			c.phase[p].Merge(rep.Reg.Histogram("flowd_phase_seconds", "", obs.L("phase", p.String())).Snapshot())
		}
		st := rep.Store.Snapshot()
		c.hits += st.Hits
		c.misses += st.Misses
		c.evictions += st.Evictions
		c.restores += st.SnapshotRestores
		c.builds += st.Builds
		ws := rep.Srv.Wire().Stats()
		c.wire.FramesIn += ws.FramesIn
		c.wire.FramesOut += ws.FramesOut
		c.wire.BytesIn += ws.BytesIn
		c.wire.BytesOut += ws.BytesOut
		c.wire.Flushes += ws.Flushes
	}
	c.fleet = r.fc.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC, c.pauseNS = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	return c
}

func buildHists() map[string]obs.Snapshot {
	m := make(map[string]obs.Snapshot, len(substrateKinds))
	for _, k := range substrateKinds {
		m[k] = obs.Default().Histogram("substrate_build_seconds", "", obs.L("substrate", k)).Snapshot()
	}
	return m
}

func delta(after, before obs.Snapshot) obs.Snapshot {
	after.Sub(before)
	return after
}

func meanUS(s obs.Snapshot) float64 { return float64(s.Mean().Nanoseconds()) / 1e3 }
func meanMS(s obs.Snapshot) float64 { return float64(s.Mean().Nanoseconds()) / 1e6 }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns the window's counter deltas into per-layer
// metrics. buildBase is the substrate-build reading taken before the
// first set-up: build times are averaged over set-up and window, build
// counts over the window alone.
func counterMetrics(c0, c1 counters, buildBase map[string]obs.Snapshot, res *loadResult) map[string]float64 {
	m := map[string]float64{}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m["flowd.phase_us."+p.String()] = meanUS(delta(c1.phase[p], c0.phase[p]))
	}
	hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
	restores := c1.restores - c0.restores
	m["store.hit_rate"] = ratio(hits, hits+misses)
	m["store.evictions"] = float64(c1.evictions - c0.evictions)
	m["store.disk_restores"] = float64(restores)
	m["store.restore_ratio"] = ratio(restores, misses)
	m["store.rebuilds"] = float64(c1.builds - c0.builds)
	m["store.queue_wait_us"] = meanUS(delta(c1.queueWait, c0.queueWait))
	m["store.acquire_us"] = meanUS(delta(c1.acquire, c0.acquire))
	m["store.restore_ms"] = meanMS(delta(c1.restore, c0.restore))
	m["store.spill_write_ms"] = meanMS(delta(c1.spillWrite, c0.spillWrite))

	rh, rm := c1.rowHits-c0.rowHits, c1.rowMisses-c0.rowMisses
	mh, mm := c1.memoHits-c0.memoHits, c1.memoMiss-c0.memoMiss
	m["decode.row_hit_ratio"] = ratio(rh, rh+rm)
	m["decode.memo_hit_ratio"] = ratio(mh, mh+mm)
	m["decode.miss_us"] = meanUS(delta(c1.decodeMiss, c0.decodeMiss))

	var builds uint64
	for _, k := range substrateKinds {
		builds += c1.build[k].Count - c0.build[k].Count
		m["artifact.build_ms."+k] = meanMS(delta(c1.build[k], buildBase[k]))
	}
	m["artifact.builds"] = float64(builds)

	framesIn := c1.wire.FramesIn - c0.wire.FramesIn
	m["wire.bytes_per_query"] = ratio(c1.wire.BytesIn-c0.wire.BytesIn+c1.wire.BytesOut-c0.wire.BytesOut, framesIn)
	m["wire.frames_per_flush"] = ratio(c1.wire.FramesOut-c0.wire.FramesOut, c1.wire.Flushes-c0.wire.Flushes)
	m["wire.write_queue_us"] = meanUS(delta(c1.writeQueue, c0.writeQueue))
	m["fleet.failovers"] = float64(c1.fleet.Failovers - c0.fleet.Failovers)
	m["fleet.ejects"] = float64(c1.fleet.Ejects - c0.fleet.Ejects)

	secs := res.elapsed.Seconds()
	m["runtime.alloc_mb_per_s"] = float64(c1.totalAlloc-c0.totalAlloc) / 1e6 / secs
	m["runtime.gc_cycles"] = float64(c1.numGC - c0.numGC)
	m["runtime.gc_pause_ms"] = float64(c1.pauseNS-c0.pauseNS) / 1e6

	if res.tracedN > 0 && res.plainN > 0 {
		traced := float64(res.tracedLat) / float64(res.tracedN)
		plain := float64(res.plainLat) / float64(res.plainN)
		m["bench.trace_overhead_pct"] = 100 * (traced/plain - 1)
	} else {
		m["bench.trace_overhead_pct"] = 0
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// The ladder's rungs, bottom up: the library, the store over it, one
// replica's wire server over that, and the fleet front over the wire.
var rungs = []string{"planarflow.do", "store.do", "wire.query", "fleet.query"}

// ladderTraceHi marks the trace ids of the ladder's wire and fleet
// calls, so their spans in the program's tracer rings can be found.
const ladderTraceHi = 0x6c6164646572

// ladder replays a sample of the pool serially through every rung's
// public entry, w.ladderRepeats times per query with the rung order
// rotating, recording one span per call under one trace per query. Each
// call above the library gets a child span for the part of it spent in
// the rung below: the exec phase store.Do marks on a span passed in its
// context, the server's acquire and exec phases under a wire call, and
// the fleet client's attempt span under a fleet call. A second, untimed
// pass counts allocations per call. Every answer is checked into t.
func ladder(ctx context.Context, w workload, r *rig, pool []item, tr *tracer, t *tally) (map[string]float64, error) {
	wcs := map[string]*flowd.WireClient{}
	defer func() {
		for _, wc := range wcs {
			wc.Close()
		}
	}()
	// The library rung runs on the very bundle the owning store serves,
	// so every rung computes on the same memory.
	bundles := map[string]*planarflow.PreparedGraph{}
	calls := []func(context.Context, *item) (*flowd.QueryResponse, error){
		func(ctx context.Context, it *item) (*flowd.QueryResponse, error) {
			pg := bundles[it.req.Graph]
			if pg == nil {
				err := r.replica(it.req.Graph).Store.With(ctx, it.req.Graph, func(b *planarflow.PreparedGraph, _ bool) error {
					pg = b
					return nil
				})
				if err != nil {
					return nil, err
				}
				bundles[it.req.Graph] = pg
			}
			a, err := pg.Do(ctx, it.req.Query())
			return answerResponse(a), err
		},
		func(ctx context.Context, it *item) (*flowd.QueryResponse, error) {
			a, _, err := r.replica(it.req.Graph).Store.Do(ctx, it.req.Graph, it.req.Query())
			return answerResponse(a), err
		},
		func(ctx context.Context, it *item) (*flowd.QueryResponse, error) {
			rep := r.replica(it.req.Graph)
			wc := wcs[rep.Name]
			if wc == nil {
				m := rep.Member()
				wc = flowd.NewWireClient(m.WireNet, m.WireAddr, flowd.WireOptions{PoolSize: 1})
				wcs[rep.Name] = wc
			}
			return wc.Query(ctx, it.req)
		},
		func(ctx context.Context, it *item) (*flowd.QueryResponse, error) { return r.fc.Query(ctx, it.req) },
	}

	sample := make([]*item, 0, w.ladderSample)
	for i := 0; i < w.ladderSample; i++ {
		sample = append(sample, &pool[i*len(pool)/w.ladderSample])
	}
	// The collector stays off while the ladder runs and collects once
	// before each query, so no call shares its time with a GC cycle that
	// another call's garbage started.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var spans []span
	for _, it := range sample {
		runtime.GC()
		root := span{Name: "ladder", Trace: tr.newID(), Start: time.Now().UnixNano()}
		root.ID = root.Trace
		first := len(spans)
		for rep := 0; rep < w.ladderRepeats; rep++ {
			for k := range rungs {
				i := (k + rep) % len(rungs) // rotate so no rung always runs first
				s := span{Name: rungs[i], Trace: root.Trace, ID: tr.newID(), Parent: root.ID}
				cctx := ctx
				var osp *obs.Span
				switch s.Name {
				case "store.do":
					osp = obs.NewSpan(s.ID, "bench")
					cctx = obs.ContextWithSpan(ctx, osp)
				case "wire.query", "fleet.query":
					cctx = obs.ContextWithTrace(ctx, obs.TraceContext{Hi: ladderTraceHi, Lo: s.ID, Parent: s.ID})
				}
				t0 := time.Now()
				resp, err := calls[i](cctx, it)
				t1 := time.Now()
				t.check(it, resp, err, "ladder ")
				s.Start, s.End = t0.UnixNano(), t1.UnixNano()
				spans = append(spans, s)
				if osp != nil {
					start := s.Start + osp.PhaseNS(obs.PhaseAcquire)
					spans = append(spans, span{Name: "store.exec", Trace: s.Trace, ID: tr.newID(), Parent: s.ID,
						Start: start, End: start + osp.PhaseNS(obs.PhaseExec)})
				}
			}
		}
		spans = append(spans, programChildren(r, spans[first:], tr)...)
		root.End = time.Now().UnixNano()
		spans = append(spans, root)
	}
	for _, s := range spans {
		tr.record(s)
	}
	total, self, traces := ladderSelf(spans, rungs)
	if traces == 0 {
		return nil, fmt.Errorf("ladder: no query completed every rung")
	}
	m := map[string]float64{
		"planarflow.do_us": us(total["planarflow.do"]),
		"store.do_us":      us(total["store.do"]),
		"store.self_us":    us(self["store.do"]),
		"wire.query_us":    us(total["wire.query"]),
		"wire.self_us":     us(self["wire.query"]),
		"fleet.query_us":   us(total["fleet.query"]),
		"fleet.self_us":    us(self["fleet.query"]),
	}
	allocName := map[string]string{
		"planarflow.do": "planarflow.allocs_per_op",
		"wire.query":    "wire.allocs_per_op",
		"fleet.query":   "fleet.allocs_per_op",
	}
	for i, name := range rungs {
		if allocName[name] == "" {
			continue
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, it := range sample {
			resp, err := calls[i](ctx, it)
			t.check(it, resp, err, "ladder ")
		}
		runtime.ReadMemStats(&m1)
		m[allocName[name]] = float64(m1.Mallocs-m0.Mallocs) / float64(len(sample))
	}
	return m, nil
}

// programChildren finds, in the fleet client's and the replicas' span
// rings, the part of each wire and fleet call spent in the rung below:
// the server's acquire and exec phases under a wire call, the client's
// attempt span under a fleet call. Those spans carry durations but no
// precise start, so each child is placed at its parent's start.
func programChildren(r *rig, calls []span, tr *tracer) []span {
	byTrace := map[string]span{}
	for _, c := range calls {
		if c.Name == "wire.query" || c.Name == "fleet.query" {
			byTrace[obs.TraceContext{Hi: ladderTraceHi, Lo: c.ID}.TraceID()] = c
		}
	}
	views := r.fc.Tracer().Recent()
	for _, rep := range r.reps {
		views = append(views, rep.Srv.Tracer().Recent()...)
	}
	var out []span
	for _, v := range views {
		c, ok := byTrace[v.TraceID]
		if !ok {
			continue
		}
		var name string
		var ms float64
		switch {
		case c.Name == "wire.query" && v.Transport == "wire":
			name, ms = "server.store", v.PhasesMS[obs.PhaseAcquire.String()]+v.PhasesMS[obs.PhaseExec.String()]
		case c.Name == "fleet.query" && v.Transport == "fleet" && v.Family == "attempt":
			name, ms = "fleet.attempt", v.TotalMS
		default:
			continue
		}
		out = append(out, span{Name: name, Trace: c.Trace, ID: tr.newID(), Parent: c.ID,
			Start: c.Start, End: c.Start + int64(ms*1e6)})
	}
	return out
}

// answerResponse gives a library answer the wire response's shape so
// one check serves every rung.
func answerResponse(a *planarflow.Answer) *flowd.QueryResponse {
	if a == nil {
		return nil
	}
	return &flowd.QueryResponse{Value: a.Value, Dist: a.Dist, CutEdges: a.Edges, NegCycle: a.NegCycle}
}

// snapshotMetrics times PreparedGraph.Snapshot and RestorePrepared on
// the first working-set graph, warmed, and reports the median of five
// runs of each.
func snapshotMetrics(o *oracle, tr *tracer) (map[string]float64, error) {
	const runs = 5
	var buf bytes.Buffer
	enc := make([]float64, 0, runs)
	dec := make([]float64, 0, runs)
	root := span{Name: "snapshot", Trace: tr.newID(), Start: time.Now().UnixNano()}
	root.ID = root.Trace
	for i := 0; i < runs; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := o.pgs[0].Snapshot(&buf); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := planarflow.RestorePrepared(o.graphs[0], bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.record(span{Name: "snapshot.encode", Trace: root.Trace, ID: tr.newID(), Parent: root.ID, Start: t0.UnixNano(), End: t1.UnixNano()})
		tr.record(span{Name: "snapshot.decode", Trace: root.Trace, ID: tr.newID(), Parent: root.ID, Start: t1.UnixNano(), End: t2.UnixNano()})
		enc = append(enc, ms(t1.Sub(t0)))
		dec = append(dec, ms(t2.Sub(t1)))
	}
	root.End = time.Now().UnixNano()
	tr.record(root)
	return map[string]float64{
		"snapshot.encode_ms": median(enc),
		"snapshot.decode_ms": median(dec),
		"snapshot.bytes":     float64(buf.Len()),
	}, nil
}
