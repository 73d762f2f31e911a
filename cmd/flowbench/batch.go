package main

// BATCH experiment: request batching on the flowd wire. The same
// mixed-family workload — Zipf-popular graphs from the TRAFFIC working
// set, queries drawn from dist/dualdist/dualsssp/maxflow/girth — is
// served twice from identical fresh daemons: once as singleton requests
// (B round trips, B store acquisitions per B queries) and once through
// POST /v1/batch (one round trip, one bundle pin, one LRU touch per B
// queries, with the batch's substrate warmup run once before fan-out).
// Each path records wall-clock throughput, per-request latency
// percentiles, hit rate and evictions; OK asserts the batching story:
// both paths answer identically query-for-query, nothing errors, and
// batched qps >= singleton qps (the whole point of the endpoint).

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/planar"
	"planarflow/internal/store"
)

// batchCfg sizes one BATCH run. The working set mirrors trafficCfg so the
// comparison runs on the TRAFFIC grid.
type batchCfg struct {
	graphs   int     // working-set size G
	side     int     // grid side
	resident int     // budget in units of one graph's measured footprint
	skew     float64 // Zipf exponent over graph popularity ranks
	queries  int     // total queries per path
	batch    int     // B: queries per batch request
	qpsFloor float64 // OK threshold for the singleton path (collapse guard)
}

func batchSizes(full bool) batchCfg {
	if full {
		return batchCfg{graphs: 16, side: 10, resident: 8, skew: 1.3, queries: 1600, batch: 16, qpsFloor: 25}
	}
	return batchCfg{graphs: 8, side: 6, resident: 5, skew: 1.3, queries: 320, batch: 16, qpsFloor: 25}
}

// batchGroup is one batch request's worth of workload: B mixed-family
// queries against one Zipf-drawn graph.
type batchGroup struct {
	graph   string
	queries []flowd.BatchQuery
}

// batchWorkload derives the full (seeded, reproducible) request sequence
// both paths serve.
func batchWorkload(bc batchCfg, seed int64, ids []string, n, faces int) []batchGroup {
	rng := planar.NewRand(seed + 500)
	z := newZipf(bc.graphs, bc.skew)
	groups := make([]batchGroup, bc.queries/bc.batch)
	for gi := range groups {
		qs := make([]flowd.BatchQuery, bc.batch)
		for i := range qs {
			switch roll := rng.Float64(); {
			case roll < 0.70:
				qs[i] = flowd.BatchQuery{Op: "dist", U: rng.IntN(n), V: rng.IntN(n)}
			case roll < 0.85:
				qs[i] = flowd.BatchQuery{Op: "dualdist", U: rng.IntN(faces), V: rng.IntN(faces)}
			case roll < 0.92:
				qs[i] = flowd.BatchQuery{Op: "dualsssp", Source: rng.IntN(faces)}
			case roll < 0.96:
				qs[i] = flowd.BatchQuery{Op: "maxflow", U: rng.IntN(n / 2), V: n/2 + rng.IntN(n/2)}
			default:
				qs[i] = flowd.BatchQuery{Op: "girth"}
			}
		}
		groups[gi] = batchGroup{graph: ids[z.sample(rng)], queries: qs}
	}
	return groups
}

// batchDaemon spins up one fresh daemon loaded with the working set.
// unit is the measured per-bundle footprint the budget is denominated in
// (computed once per repeat by batchBench and shared by both paths).
func batchDaemon(bc batchCfg, seed, unit int64) (cl *flowd.Client, st *store.Store, shutdown func(), err error) {
	tc := trafficCfg{graphs: bc.graphs, side: bc.side, resident: bc.resident, skew: bc.skew}
	st = store.New(store.Config{MaxBytes: int64(bc.resident)*unit + unit/2})
	hsrv := httptest.NewServer(flowd.NewServer(st))
	cl = flowd.NewClient(hsrv.URL).WithHTTPClient(hsrv.Client())
	ctx := context.Background()
	for i := 0; i < bc.graphs; i++ {
		if _, rerr := cl.Register(ctx, fmt.Sprintf("g%02d", i), trafficSpec(tc, seed, i)); rerr != nil {
			hsrv.Close()
			return nil, nil, nil, rerr
		}
	}
	return cl, st, hsrv.Close, nil
}

type batchPathResult struct {
	values          []int64 // scalar answer per query, in workload order
	qps             float64
	p50, p99        float64 // per-HTTP-request latency percentiles
	phases          phaseMeans
	hitRate, wallMS float64
	evictions       int64
	errs            int
}

// runBatchSingle serves the workload as one request per query.
func runBatchSingle(bc batchCfg, seed, unit int64, groups []batchGroup) (*batchPathResult, error) {
	cl, st, shutdown, err := batchDaemon(bc, seed, unit)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	ctx := context.Background()
	res := &batchPathResult{values: make([]int64, 0, bc.queries)}
	hist := obs.NewHistogram()
	phasesBefore := snapPhases()
	begin := time.Now()
	for _, grp := range groups {
		for _, q := range grp.queries {
			t0 := time.Now()
			qr, err := cl.Query(ctx, flowd.QueryRequest{
				Graph: grp.graph, Op: q.Op, U: q.U, V: q.V, Source: q.Source, Eps: q.Eps,
			})
			hist.Observe(time.Since(t0))
			if err != nil {
				res.errs++
				res.values = append(res.values, 0)
				continue
			}
			res.values = append(res.values, qr.Value)
		}
	}
	wall := time.Since(begin)
	res.phases = snapPhases().meansSince(phasesBefore)
	stats := st.Totals()
	res.qps = float64(len(res.values)) / wall.Seconds()
	res.p50, res.p99 = quantilesMS(hist)
	res.hitRate, res.evictions = stats.HitRate(), stats.Evictions
	res.wallMS = float64(wall.Microseconds()) / 1000
	return res, nil
}

// runBatchBatched serves the workload as one /v1/batch request per group.
func runBatchBatched(bc batchCfg, seed, unit int64, groups []batchGroup) (*batchPathResult, error) {
	cl, st, shutdown, err := batchDaemon(bc, seed, unit)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	ctx := context.Background()
	res := &batchPathResult{values: make([]int64, 0, bc.queries)}
	hist := obs.NewHistogram()
	phasesBefore := snapPhases()
	begin := time.Now()
	for _, grp := range groups {
		t0 := time.Now()
		br, err := cl.QueryBatch(ctx, flowd.BatchRequest{Graph: grp.graph, Queries: grp.queries})
		hist.Observe(time.Since(t0))
		if err != nil {
			return nil, err
		}
		for _, r := range br.Results {
			if r.Error != "" {
				res.errs++
				res.values = append(res.values, 0)
				continue
			}
			res.values = append(res.values, r.Value)
		}
	}
	wall := time.Since(begin)
	res.phases = snapPhases().meansSince(phasesBefore)
	stats := st.Totals()
	res.qps = float64(len(res.values)) / wall.Seconds()
	res.p50, res.p99 = quantilesMS(hist)
	res.hitRate, res.evictions = stats.HitRate(), stats.Evictions
	res.wallMS = float64(wall.Microseconds()) / 1000
	return res, nil
}

// batchBench runs the BATCH experiment: B queries per request vs B
// singleton requests over the same seeded workload.
func batchBench(s *sink, c cfg) {
	bc := batchSizes(c.full)
	for rep := 0; rep < c.repeats; rep++ {
		seed := c.seedFor(40, rep)
		header(rep, "BATCH", fmt.Sprintf(
			"flowd request batching: B=%d vs singletons, G=%d grids %dx%d, budget %d/%d resident, Zipf(%.1f)",
			bc.batch, bc.graphs, bc.side, bc.side, bc.resident, bc.graphs, bc.skew),
			"path", "queries", "reqs", "qps", "p50ms", "p99ms", "hitrate", "evict", "ok")

		// Probe the working-set shape and per-bundle footprint once; both
		// paths share them (all working-set graphs have the same n and
		// faces, and the budget unit is seed-deterministic).
		tc := trafficCfg{graphs: bc.graphs, side: bc.side, resident: bc.resident, skew: bc.skew}
		g0, err := trafficSpec(tc, seed, 0).Build()
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		unit, err := trafficUnit(tc, seed)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ids := make([]string, bc.graphs)
		for i := range ids {
			ids[i] = fmt.Sprintf("g%02d", i)
		}
		groups := batchWorkload(bc, seed, ids, g0.N(), g0.NumFaces())

		single, err := runBatchSingle(bc, seed, unit, groups)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		batched, err := runBatchBatched(bc, seed, unit, groups)
		if err != nil {
			fmt.Println("error:", err)
			return
		}

		valuesEqual := len(single.values) == len(batched.values)
		if valuesEqual {
			for i := range single.values {
				if single.values[i] != batched.values[i] {
					valuesEqual = false
					break
				}
			}
		}
		singleOK := single.errs == 0 && single.qps >= bc.qpsFloor
		batchOK := batched.errs == 0 && valuesEqual && batched.qps >= single.qps

		n, d := bc.side*bc.side, 2*bc.side-2
		inst := fmt.Sprintf("zipf%.1f-g%d-r%d", bc.skew, bc.graphs, bc.resident)
		s.add(Record{
			Exp: "BATCH", Instance: inst + ":single", N: n, D: d,
			WallMS: single.wallMS, Repeat: rep, Seed: seed, OK: singleOK,
			Queries: bc.queries, QPS: single.qps, Clients: 1,
			HitRate: single.hitRate, Evictions: single.evictions,
			P50MS: single.p50, P99MS: single.p99,
			PhaseDecodeMS: single.phases.decode, PhaseAcquireMS: single.phases.acquire,
			PhaseBuildMS: single.phases.build, PhaseExecMS: single.phases.exec,
			PhaseEncodeMS: single.phases.encode,
		})
		s.add(Record{
			Exp: "BATCH", Instance: fmt.Sprintf("%s:batch%d", inst, bc.batch), N: n, D: d,
			WallMS: batched.wallMS, Repeat: rep, Seed: seed, OK: batchOK,
			Queries: bc.queries, QPS: batched.qps, Clients: 1, Batch: bc.batch,
			HitRate: batched.hitRate, Evictions: batched.evictions,
			P50MS: batched.p50, P99MS: batched.p99,
			PhaseDecodeMS: batched.phases.decode, PhaseAcquireMS: batched.phases.acquire,
			PhaseBuildMS: batched.phases.build, PhaseExecMS: batched.phases.exec,
			PhaseEncodeMS: batched.phases.encode,
		})
		row(rep, "single", bc.queries, bc.queries, single.qps, single.p50, single.p99,
			single.hitRate, single.evictions, singleOK)
		row(rep, fmt.Sprintf("batch%d", bc.batch), bc.queries, len(groups), batched.qps,
			batched.p50, batched.p99, batched.hitRate, batched.evictions, batchOK)
	}
}
