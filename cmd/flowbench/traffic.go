package main

// TRAFFIC experiment: fleet-level serving through the flowd daemon. A
// fresh daemon (in-process HTTP server over internal/store) is loaded
// with a working set of G same-size grids whose artifact footprint
// exceeds the store's memory budget, then driven by C concurrent clients
// issuing queries over a Zipf-distributed graph popularity — the shape of
// real multi-tenant traffic: a popular head that should stay resident and
// a long tail that churns through the eviction policy. Each (C) run
// records wall-clock throughput (qps), latency percentiles, the store's
// hit rate, and the eviction count; OK asserts the serving story the
// subsystem exists for: nonzero evictions (the budget is real), >= 80%
// hit rate at the default skew (the LRU keeps the head), a qps floor,
// and wire answers equal to in-process answers.
//
// The op mix is decode-heavy on purpose (dist 80%, dualdist 15%,
// dualsssp 5%): point queries cost nothing once labels are warm, so
// throughput measures the serving layer — registry, singleflight,
// eviction, HTTP — not the simulator.
//
// The :ssspsim/:ssspfast instance pair additionally exercises the decode
// engine under fleet traffic: the same dualsssp-heavy mix is served once
// with the wire's simulated escape hatch and once on the default decode
// route, each gated by the standard invariants plus a dualsssp
// wire-vs-library ground-truth check; the fast record carries the qps
// ratio over the simulated run as its Speedup trajectory point (HTTP
// overhead dominates per-request wall here, so the ratio is informative,
// not gated — the >= 100x engine gate lives in SERVE).
//
// The :http/:wire instance pair measures the transport itself: the same
// dualsssp-heavy mix at C=8, once over synchronous HTTP/JSON and once
// over the binary wire transport with pipelining (a window of in-flight
// requests per client) and the client-side micro-coalescer folding
// concurrent singletons into batch frames. Answers are identical by the
// daemon's shared execution plane; only the transport cost changes. The
// wire record's Speedup is its qps ratio over the http run, and — unlike
// the engine pair — the ratio IS gated: the wire run's OK requires
// >= 5x (full) / >= 2x (smoke) on top of the standard invariants,
// pinning the serving layer to within sight of the decode engine it
// fronts.

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"planarflow"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/planar"
	"planarflow/internal/store"
)

// trafficCfg sizes one TRAFFIC run.
type trafficCfg struct {
	graphs   int     // working-set size G
	side     int     // grid side (all graphs same size, different seeds)
	resident int     // budget in units of one graph's measured footprint
	skew     float64 // Zipf exponent over graph popularity ranks
	queries  int     // total queries per run (split across clients)
	qpsFloor float64 // OK threshold: generous, catches collapse not noise
}

func trafficSizes(full bool) trafficCfg {
	if full {
		return trafficCfg{graphs: 16, side: 10, resident: 8, skew: 1.3, queries: 1600, qpsFloor: 25}
	}
	return trafficCfg{graphs: 10, side: 6, resident: 6, skew: 1.3, queries: 480, qpsFloor: 25}
}

// zipfDist is a seeded sampler over ranks 0..n-1 with P(i) ∝ 1/(i+1)^s.
// (math/rand/v2 dropped rand.Zipf; a CDF inversion is all we need.)
type zipfDist struct{ cdf []float64 }

func newZipf(n int, s float64) *zipfDist {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfDist{cdf: cdf}
}

func (z *zipfDist) sample(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, rng.Float64())
}

func trafficSpec(tc trafficCfg, seed int64, i int) store.GraphSpec {
	return store.GraphSpec{
		Kind: "grid", Rows: tc.side, Cols: tc.side,
		Seed: seed + int64(i), WLo: 1, WHi: 9, CLo: 1, CHi: 16,
	}
}

// trafficUnit measures the accounted footprint of one working-set graph
// after the op mix's substrates (primal + dual labelings) are warm — the
// unit the store budget is denominated in.
func trafficUnit(tc trafficCfg, seed int64) (int64, error) {
	g, err := trafficSpec(tc, seed, 0).Build()
	if err != nil {
		return 0, err
	}
	p, err := planarflow.Prepare(g)
	if err != nil {
		return 0, err
	}
	if _, err := p.Dist(0, g.N()-1); err != nil {
		return 0, err
	}
	if _, err := p.DualDist(0, 1); err != nil {
		return 0, err
	}
	return p.Stats().Bytes, nil
}

// trafficMix selects the op mix and execution route of one TRAFFIC run:
// cumulative probability thresholds for dist and dualdist (dualsssp gets
// the remainder), whether dualsssp requests set the wire's simulated
// escape hatch, and the transport (synchronous HTTP, or the binary wire
// transport with a pipelining window and the client-side coalescer).
type trafficMix struct {
	label       string // instance suffix; "" is the default serving mix
	distP, ddsP float64
	simulated   bool
	wire        bool // queries over the binary transport instead of HTTP
	window      int  // in-flight requests per client (<= 1 = synchronous)
	// noHitGate drops the >= 0.80 hit-rate invariant: under the wire
	// coalescer a fold of K head-graph queries costs ONE store
	// acquisition, so the acquisition-level hit rate is no longer
	// comparable with per-query transports — fewer, coarser acquisitions
	// deflate the ratio while serving exactly the same traffic. The
	// eviction and ground-truth invariants still apply.
	noHitGate bool
	// queries overrides the run's query budget when nonzero. The churn
	// instances keep the default; the transport pair needs a much longer
	// window — at wire throughput the default budget is tens of
	// milliseconds of wall, which measures scheduler and coalescer warmup
	// transients instead of the steady state. Both legs of a gated pair
	// must use the same override for the ratio to mean anything.
	queries int
	// resident runs the working set fully resident: unlimited budget,
	// graphs warm-registered, and the eviction invariant inverted to
	// evictions == 0. The default instances measure the store under
	// churn, where substrate rebuilds dominate the wall and any transport
	// measures the same; the transport pair instead measures the serving
	// layer the tentpole targets — warm decode-engine answers behind a
	// wire — so both of its legs run churn-free and steady-state.
	resident bool
}

var (
	trafficDefaultMix = trafficMix{distP: 0.80, ddsP: 0.95}
	// The fast-path gate pair: a dualsssp-heavy mix (40%) so the decode
	// engine — not the point-decode ops — carries the run.
	trafficSSSPSim  = trafficMix{label: "ssspsim", distP: 0.40, ddsP: 0.60, simulated: true}
	trafficSSSPFast = trafficMix{label: "ssspfast", distP: 0.40, ddsP: 0.60}
	// The transport gate pair: the same dualsssp-heavy mix, synchronous
	// HTTP vs pipelined+coalesced wire frames.
	trafficHTTPMix = trafficMix{label: "http", distP: 0.40, ddsP: 0.60, resident: true}
	trafficWireMix = trafficMix{label: "wire", distP: 0.40, ddsP: 0.60, resident: true,
		wire: true, window: 32, noHitGate: true}
)

// trafficWireFloor is the gated qps ratio of the :wire run over its
// :http twin — the tentpole claim that the binary transport moves the
// serving layer toward the decode engine's speed. Full runs must clear
// 5x; smoke runs (tiny query budgets, startup-dominated) 2x.
func trafficWireFloor(full bool) float64 {
	if full {
		return 5
	}
	return 2
}

// trafficPairQueries is the transport pair's query budget override: long
// enough that the wire leg's wall is seconds-scale steady state rather
// than a few tens of milliseconds of scheduler and coalescer warmup.
func trafficPairQueries(full bool) int {
	if full {
		return 32000
	}
	return 4800
}

// trafficBench runs the TRAFFIC experiment: one daemon per client count,
// C=1 then C=8 on the default mix, then the simulated/fast dualsssp-heavy
// pair at C=8. Same working set and query budget throughout.
func trafficBench(s *sink, c cfg) {
	tc := trafficSizes(c.full)
	for rep := 0; rep < c.repeats; rep++ {
		seed := c.seedFor(30, rep)
		header(rep, "TRAFFIC", fmt.Sprintf(
			"flowd under Zipf(%.1f) traffic: G=%d grids %dx%d, budget %d/%d resident",
			tc.skew, tc.graphs, tc.side, tc.side, tc.resident, tc.graphs),
			"clients", "queries", "qps", "p50ms", "p99ms", "hitrate", "evict", "ok")
		emit := func(clients int, mix trafficMix, res *trafficResult, speedup float64) {
			queries := tc.queries
			if mix.queries > 0 {
				queries = mix.queries
			}
			resident := fmt.Sprint(tc.resident)
			if mix.resident {
				resident = "all"
			}
			inst := fmt.Sprintf("zipf%.1f-g%d-r%s:c%d", tc.skew, tc.graphs, resident, clients)
			label := fmt.Sprint(clients)
			if mix.label != "" {
				inst += ":" + mix.label
				label += ":" + mix.label
			}
			s.add(Record{
				Exp:      "TRAFFIC",
				Instance: inst,
				N:        tc.side * tc.side, D: 2*tc.side - 2,
				WallMS: res.wallMS, Repeat: rep, Seed: seed, OK: res.ok,
				Queries: queries, QPS: res.qps, Speedup: speedup,
				Clients: clients, HitRate: res.hitRate, Evictions: res.evictions,
				P50MS: res.p50, P99MS: res.p99,
				PhaseDecodeMS: res.phases.decode, PhaseAcquireMS: res.phases.acquire,
				PhaseBuildMS: res.phases.build, PhaseExecMS: res.phases.exec,
				PhaseEncodeMS: res.phases.encode,
			})
			row(rep, label, queries, res.qps, res.p50, res.p99, res.hitRate,
				res.evictions, res.ok)
		}
		for _, clients := range []int{1, 8} {
			res, err := runTraffic(tc, seed, clients, trafficDefaultMix)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			emit(clients, trafficDefaultMix, res, 0)
		}
		sim, err := runTraffic(tc, seed, 8, trafficSSSPSim)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		emit(8, trafficSSSPSim, sim, 0)
		fast, err := runTraffic(tc, seed, 8, trafficSSSPFast)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		emit(8, trafficSSSPFast, fast, fast.qps/sim.qps)

		// The transport pair: same mix, HTTP vs wire; the ratio is gated.
		httpMix, wireMix := trafficHTTPMix, trafficWireMix
		httpMix.queries = trafficPairQueries(c.full)
		wireMix.queries = httpMix.queries
		httpRes, err := runTraffic(tc, seed, 8, httpMix)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		emit(8, httpMix, httpRes, 0)
		wireRes, err := runTraffic(tc, seed, 8, wireMix)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		ratio := wireRes.qps / httpRes.qps
		wireRes.ok = wireRes.ok && ratio >= trafficWireFloor(c.full)
		emit(8, wireMix, wireRes, ratio)
	}
}

type trafficResult struct {
	qps, p50, p99, hitRate, wallMS float64
	phases                         phaseMeans
	evictions                      int64
	ok                             bool
}

func runTraffic(tc trafficCfg, seed int64, clients int, mix trafficMix) (*trafficResult, error) {
	if mix.queries > 0 {
		tc.queries = mix.queries // tc is a copy; the caller's budget is untouched
	}
	unit, err := trafficUnit(tc, seed)
	if err != nil {
		return nil, err
	}
	budget := store.Config{MaxBytes: int64(tc.resident)*unit + unit/2}
	if mix.resident {
		budget = store.Config{} // unlimited: steady-state serving, no churn
	}
	st := store.New(budget)
	fsrv := flowd.NewServer(st)
	hsrv := httptest.NewServer(fsrv)
	defer hsrv.Close()
	ctx := context.Background()
	cl := flowd.NewClient(hsrv.URL).WithHTTPClient(hsrv.Client())

	// qcl carries the measured query traffic: the HTTP client itself, or
	// the same client with queries rerouted over the binary transport
	// (control plane — register — stays on HTTP either way).
	qcl := cl
	if mix.wire {
		wln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go fsrv.Wire().Serve(wln)
		defer fsrv.Wire().Close()
		wc := flowd.NewWireClient("tcp", wln.Addr().String(),
			flowd.WireOptions{Coalesce: true})
		defer wc.Close()
		qcl = cl.WithWireTransport(wc)
	}

	ids := make([]string, tc.graphs)
	var n, faces int
	for i := range ids {
		ids[i] = fmt.Sprintf("g%02d", i)
		register := cl.Register
		if mix.resident {
			register = cl.RegisterWarm // steady state from the first query
		}
		reg, err := register(ctx, ids[i], trafficSpec(tc, seed, i))
		if err != nil {
			return nil, err
		}
		n, faces = reg.N, reg.Faces
	}

	// Wire-vs-library ground truth on the most popular graph.
	g0, err := trafficSpec(tc, seed, 0).Build()
	if err != nil {
		return nil, err
	}
	p0, err := planarflow.Prepare(g0)
	if err != nil {
		return nil, err
	}
	wantDist, err := p0.Dist(0, n-1)
	if err != nil {
		return nil, err
	}
	wantSSSP, err := p0.DualSSSP(0)
	if err != nil {
		return nil, err
	}

	z := newZipf(tc.graphs, tc.skew)
	perClient := tc.queries / clients
	// One shared latency histogram for the run: Observe is atomic, so all
	// clients feed it without coordination, and the digest is the same
	// HDR-lite shape the daemon itself exports.
	hist := obs.NewHistogram()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	phasesBefore := snapPhases()
	begin := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The request stream is generated up front so the rng sequence —
			// and therefore the workload — is identical whatever the transport
			// or issue discipline.
			rng := planar.NewRand(seed + 1000*int64(w+1))
			reqs := make([]flowd.QueryRequest, perClient)
			for q := range reqs {
				req := flowd.QueryRequest{Graph: ids[z.sample(rng)]}
				switch roll := rng.Float64(); {
				case roll < mix.distP:
					req.Op, req.U, req.V = "dist", rng.IntN(n), rng.IntN(n)
				case roll < mix.ddsP:
					req.Op, req.U, req.V = "dualdist", rng.IntN(faces), rng.IntN(faces)
				default:
					req.Op, req.Source = "dualsssp", rng.IntN(faces)
					req.Simulated = mix.simulated
				}
				reqs[q] = req
			}
			if mix.window <= 1 {
				// Synchronous: one request in flight, the HTTP discipline.
				for q, req := range reqs {
					t0 := time.Now()
					if _, err := qcl.Query(ctx, req); err != nil {
						errs[w] = fmt.Errorf("client %d query %d: %w", w, q, err)
						return
					}
					hist.Observe(time.Since(t0))
				}
				return
			}
			// Pipelined: up to window requests of this client in flight at
			// once — the wire transport multiplexes them by request id over
			// its pooled connections, and the coalescer folds coincident
			// singletons into batch frames.
			sem := make(chan struct{}, mix.window)
			var cwg sync.WaitGroup
			var errOnce sync.Once
			for q, req := range reqs {
				sem <- struct{}{}
				cwg.Add(1)
				go func(q int, req flowd.QueryRequest) {
					defer func() { <-sem; cwg.Done() }()
					t0 := time.Now()
					if _, err := qcl.Query(ctx, req); err != nil {
						errOnce.Do(func() {
							errs[w] = fmt.Errorf("client %d query %d: %w", w, q, err)
						})
						return
					}
					hist.Observe(time.Since(t0))
				}(q, req)
			}
			cwg.Wait()
		}(w)
	}
	wg.Wait()
	wall := time.Since(begin)
	// Phase attribution of the measured window only: snapshot before the
	// ground-truth queries below add their own samples.
	phases := snapPhases().meansSince(phasesBefore)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Ground truth over the measured transport: a wire run must agree with
	// the library through the wire route, not just over HTTP.
	check, err := qcl.Query(ctx, flowd.QueryRequest{Graph: ids[0], Op: "dist", U: 0, V: n - 1})
	if err != nil {
		return nil, err
	}
	checkSSSP, err := qcl.Query(ctx, flowd.QueryRequest{
		Graph: ids[0], Op: "dualsssp", Source: 0, Simulated: mix.simulated,
	})
	if err != nil {
		return nil, err
	}
	stats := st.Totals()

	p50, p99 := quantilesMS(hist)
	res := &trafficResult{
		qps:       float64(clients*perClient) / wall.Seconds(),
		p50:       p50,
		p99:       p99,
		phases:    phases,
		hitRate:   stats.HitRate(),
		wallMS:    float64(wall.Microseconds()) / 1000,
		evictions: stats.Evictions,
	}
	evictOK := res.evictions > 0 // the working set really exceeded the budget
	if mix.resident {
		evictOK = res.evictions == 0 // ...or was meant to fit, and did
	}
	res.ok = evictOK &&
		(mix.noHitGate || res.hitRate >= 0.80) && // the LRU kept the Zipf head resident
		res.qps >= tc.qpsFloor && // throughput did not collapse
		check.Value == wantDist && // the wire agrees with the library
		equalInt64s(checkSSSP.Dist, wantSSSP.Dist) // on both execution routes
	return res, nil
}
