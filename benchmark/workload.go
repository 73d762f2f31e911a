package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"planarflow"
	"planarflow/internal/flowd"
	"planarflow/internal/store"
)

// opShare is one query family's share of a workload's mix.
type opShare struct {
	op    string
	share float64
}

// workload is one traffic shape driven through the fleet front.
type workload struct {
	name   string
	graphs int // working-set size
	side   int // every graph is a weighted side x side grid
	mix    []opShare
	skew   float64 // Zipf exponent of graph popularity (0 = uniform)

	// The loop is closed: callers x inflight goroutines, each sending
	// its next query when the previous one is answered.
	callers, inflight int
	// sliceSeconds is the length of the slices the window is cut into
	// for the timing medians; each slice should hold at least 1000
	// answers, so its p99 has 10 samples above it.
	sliceSeconds int

	// residentShare sizes each replica's store budget as this share of
	// the warmed working set's bytes (0 = unlimited); a budgeted store
	// spills what it evicts to the disk tier.
	residentShare float64

	// poolSize is the number of pre-answered queries; a pool the loop
	// outruns is replayed from the start. point replays its pool many
	// times over a working set that is warm anyway; solve's maxflow and
	// minstcut are not memoized, so a replayed query costs what it cost
	// the first time.
	poolSize int
	// ladderSample is how many pool queries the traced run replays
	// through each rung, ladderRepeats how often each.
	ladderSample, ladderRepeats int
}

var pointMix = []opShare{{"dist", 0.50}, {"dualdist", 0.25}, {"dualsssp", 0.20}, {"girth", 0.05}}

// The workloads. metrics.json records why each exists; the sizes here
// were chosen on a 2-vCPU VM whose host steal swings from 1% to 30%:
// solve runs Grid(10,10) so a 10s slice still holds 1000 answers, and
// churn is closed, not open, because every fixed rate that was tried
// built a growing backlog whenever the host slowed.
var workloads = []workload{
	{
		name: "point", graphs: 16, side: 12, mix: pointMix,
		callers: 2, inflight: 8, sliceSeconds: 2,
		poolSize: 8000, ladderSample: 256, ladderRepeats: 8,
	},
	{
		name: "solve", graphs: 16, side: 10,
		mix:     []opShare{{"maxflow", 0.5}, {"minstcut", 0.5}},
		callers: 2, inflight: 1, sliceSeconds: 10,
		poolSize: 1000, ladderSample: 16, ladderRepeats: 8,
	},
	{
		name: "churn", graphs: 16, side: 8, mix: pointMix, skew: 1.0,
		callers: 2, inflight: 1, sliceSeconds: 3,
		residentShare: 0.125, poolSize: 30000,
		ladderSample: 64, ladderRepeats: 4,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) spec(seed int64, i int) store.GraphSpec {
	return store.GraphSpec{
		Kind: "grid", Rows: w.side, Cols: w.side,
		Seed: seed*1000 + int64(i), WLo: 1, WHi: 9, CLo: 1, CHi: 16,
	}
}

func graphID(i int) string { return fmt.Sprintf("g%02d", i) }

// item is one pool query with its ground-truth answer.
type item struct {
	gi   int
	req  flowd.QueryRequest
	want *planarflow.Answer
}

// oracle is the ground truth: one warmed PreparedGraph per working-set
// graph, built from the same specs the replicas register.
type oracle struct {
	specs  []store.GraphSpec
	graphs []*planarflow.Graph
	pgs    []*planarflow.PreparedGraph
	bytes  int64 // warmed footprint of the whole working set
}

func buildOracle(ctx context.Context, w workload, seed int64) (*oracle, error) {
	o := &oracle{
		specs:  make([]store.GraphSpec, w.graphs),
		graphs: make([]*planarflow.Graph, w.graphs),
		pgs:    make([]*planarflow.PreparedGraph, w.graphs),
	}
	for i := range o.specs {
		o.specs[i] = w.spec(seed, i)
		g, err := o.specs[i].Build()
		if err != nil {
			return nil, fmt.Errorf("oracle: build %s: %w", graphID(i), err)
		}
		pg, err := planarflow.Prepare(g)
		if err != nil {
			return nil, fmt.Errorf("oracle: prepare %s: %w", graphID(i), err)
		}
		if err := pg.Warm(ctx); err != nil {
			return nil, fmt.Errorf("oracle: warm %s: %w", graphID(i), err)
		}
		o.graphs[i], o.pgs[i] = g, pg
		o.bytes += pg.Stats().Bytes
	}
	return o, nil
}

// draw makes one valid query for graph gi: s != t for the flow and cut
// families, vertices and faces in range for the rest.
func draw(rng *rand.Rand, g *planarflow.Graph, gi int, op string) flowd.QueryRequest {
	req := flowd.QueryRequest{Graph: graphID(gi), Op: op}
	n, f := g.N(), g.NumFaces()
	switch op {
	case "dist":
		req.U, req.V = rng.IntN(n), rng.IntN(n)
	case "dualdist":
		req.U, req.V = rng.IntN(f), rng.IntN(f)
	case "dualsssp":
		req.Source = rng.IntN(f)
	case "maxflow", "minstcut":
		req.U = rng.IntN(n)
		req.V = rng.IntN(n - 1)
		if req.V >= req.U {
			req.V++
		}
	}
	return req
}

// mixBlock is the run of queries that holds the mix exactly; every
// share is a multiple of 1/mixBlock.
const mixBlock = 20

// mixOps lists size ops in blocks of mixBlock that each hold the mix's
// exact proportions, shuffled within the block, so any prefix of the
// pool (a run answers only a prefix) keeps the mix to within one block.
func mixOps(rng *rand.Rand, mix []opShare, size int) []string {
	var block []string
	for _, m := range mix {
		for k := int(math.Round(m.share * mixBlock)); k > 0; k-- {
			block = append(block, m.op)
		}
	}
	ops := make([]string, 0, size+len(block))
	for len(ops) < size {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		ops = append(ops, block...)
	}
	return ops[:size]
}

// makePool draws size queries, the mix in exact proportions (see
// mixOps) and the graphs by popularity, and answers each with the oracle, on one worker per CPU.
func makePool(ctx context.Context, w workload, o *oracle, seed int64, size, workers int) ([]item, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	z := newZipf(w.graphs, w.skew)
	ops := mixOps(rng, w.mix, size)
	pool := make([]item, size)
	for i := range pool {
		gi := z.sample(rng)
		pool[i] = item{gi: gi, req: draw(rng, o.graphs[gi], gi, ops[i])}
	}
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					return
				}
				it := &pool[i]
				a, err := o.pgs[it.gi].Do(ctx, it.req.Query())
				if err != nil {
					errs[k] = fmt.Errorf("oracle: %s %s: %w", it.req.Op, it.req.Graph, err)
					return
				}
				it.want = a
			}
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// matches reports whether a served answer equals the ground truth in
// value, distance vector, cut and negative-cycle flag.
func matches(resp *flowd.QueryResponse, want *planarflow.Answer) bool {
	return resp.Value == want.Value &&
		resp.NegCycle == want.NegCycle &&
		slices.Equal(resp.Dist, want.Dist) &&
		slices.Equal(resp.CutEdges, want.Edges)
}
