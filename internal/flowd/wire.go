package flowd

// The binary wire plane: the same daemon served over internal/wire's
// framed transport instead of HTTP. OpQueryB carries a QueryRequest and
// returns a QueryResponse, OpBatchB a BatchRequest/BatchResponse, both
// in the binary payload codec (wirecodec.go), validated with the HTTP
// decoders' checks and executed by the same runQuery/runBatch, so a wire
// answer renders to exactly the HTTP answer for the same request (the
// differential tests pin that). What changes is purely transport:
// persistent connections, many in-flight requests per connection
// multiplexed by request id, and write coalescing on both directions.
//
// HTTP stays the control plane (register, snapshot, metricsz); the wire
// plane carries the high-rate query traffic. WireClient is the matching
// client: a connection pool with true pipelining and an opt-in
// micro-coalescer that folds concurrent singleton queries into OpBatchB
// frames.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"planarflow/internal/obs"
	"planarflow/internal/wire"
)

// encodeBody marshals v exactly as the HTTP plane does (json.Encoder
// appends a newline), so wire payloads and HTTP bodies are
// byte-identical for the same value.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// errBody is the uniform error payload, the wire twin of writeError.
func errBody(msg string) []byte {
	b, _ := encodeBody(errorResponse{Error: msg}) // errorResponse always marshals
	return b
}

// wireStatusOf projects the library's sentinel errors onto wire
// statuses through the same classification statusOf uses for HTTP, so
// the two planes cannot disagree about an error's class. The full
// mapping table (HTTP status ↔ wire status ↔ sentinel) is in DESIGN.md.
func wireStatusOf(err error) wire.Status {
	switch statusOf(err) {
	case http.StatusNotFound:
		return wire.StatusNotFound
	case http.StatusConflict:
		return wire.StatusConflict
	case http.StatusTooManyRequests:
		return wire.StatusOverload
	case http.StatusBadRequest:
		return wire.StatusBadRequest
	case 499:
		return wire.StatusCanceled
	case http.StatusGatewayTimeout:
		return wire.StatusTimeout
	default:
		return wire.StatusInternal
	}
}

// Wire returns the daemon's binary-transport server, creating it on
// first use. Serve it on any listener (cmd/flowd wires -listen-wire and
// -listen-uds here); all listeners share one server, one set of
// transport counters, and this daemon's execution plane. The counters
// register on the process telemetry registry as the server role (client
// pools keep theirs off the registry to avoid colliding series).
func (s *Server) Wire() *wire.Server {
	s.wireMu.Lock()
	defer s.wireMu.Unlock()
	if s.wireSrv == nil {
		s.wireSrv = wire.NewServer(s)
		s.wireSrv.Counters().RegisterObs(s.reg, obs.L("role", "server"))
	}
	return s.wireSrv
}

// ServeFrame implements wire.Handler: one request frame in, one
// response frame out, the payloads the binary twins of the HTTP plane's
// JSON bodies. Each query/batch frame runs under a span keyed by the
// frame id; pings and unknown ops are not traced.
func (s *Server) ServeFrame(ctx context.Context, op wire.Op, id uint64, payload []byte) (wire.Status, []byte) {
	switch op {
	case wire.OpPing:
		b, _ := encodeBody(map[string]string{"status": "ok"})
		return wire.StatusOK, b
	case wire.OpQueryB:
		return s.serveQueryFrame(ctx, id, payload)
	case wire.OpBatchB:
		return s.serveBatchFrame(ctx, id, payload)
	default:
		return wire.StatusBadRequest, errBody(fmt.Sprintf("flowd: unknown wire op %d", op))
	}
}

// serveQueryFrame is the wire plane's span-wrapped singleton execution.
func (s *Server) serveQueryFrame(ctx context.Context, id uint64, payload []byte) (wire.Status, []byte) {
	sp, ctx := s.beginWireSpan(ctx, id)
	sp.Family = decodeFamily
	req, err := decodeWireQueryRequest(payload)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wire.StatusBadRequest, errBody(err.Error())
	}
	sp.Family, sp.Graph, sp.Route = req.Op, req.Graph, routeOf(req.Simulated)
	resp, err := s.runQuery(ctx, req)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wireStatusOf(err), errBody(err.Error())
	}
	t0 := time.Now()
	body := appendWireQueryResponse(make([]byte, 0, 96+8*len(resp.Dist)+8*len(resp.CutEdges)), resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
	return wire.StatusOK, body
}

// serveBatchFrame is serveQueryFrame's batch twin; it also feeds the
// transport-level fold counter (how many queries arrived per batch
// frame — the client-side coalescer reports the same shape from its
// end).
func (s *Server) serveBatchFrame(ctx context.Context, id uint64, payload []byte) (wire.Status, []byte) {
	sp, ctx := s.beginWireSpan(ctx, id)
	sp.Family = decodeFamily
	req, err := decodeWireBatchRequest(payload)
	sp.MarkSince(obs.PhaseDecode, sp.Start)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wire.StatusBadRequest, errBody(err.Error())
	}
	sp.Family, sp.Graph = batchFamily, req.Graph
	s.Wire().Counters().AddCoalesced(len(req.Queries))
	resp, err := s.runBatch(ctx, req)
	if err != nil {
		s.finishRequest(sp, err.Error())
		return wireStatusOf(err), errBody(err.Error())
	}
	t0 := time.Now()
	body := appendWireBatchResponse(make([]byte, 0, 32+96*len(resp.Results)), resp)
	sp.MarkSince(obs.PhaseEncode, t0)
	s.finishRequest(sp, "")
	return wire.StatusOK, body
}

// StatusError is a daemon-reported failure over the wire transport: the
// wire status plus the error body's message. errors.Is maps the
// cancellation statuses back onto the context sentinels, so callers
// handle "server observed my cancellation" and "my own ctx fired" the
// same way they do over HTTP.
type StatusError struct {
	Status wire.Status
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("flowd wire: status %s: %s", e.Status, e.Msg)
}

// Is matches the context sentinels for the cancellation statuses.
func (e *StatusError) Is(target error) bool {
	switch target {
	case context.Canceled:
		return e.Status == wire.StatusCanceled
	case context.DeadlineExceeded:
		return e.Status == wire.StatusTimeout
	}
	return false
}

// wireErr decodes an error frame into a StatusError.
func wireErr(status wire.Status, body []byte) error {
	var e errorResponse
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		e.Error = fmt.Sprintf("(%d-byte undecodable error body)", len(body))
	}
	return &StatusError{Status: status, Msg: e.Error}
}

// WireOptions configures a WireClient.
type WireOptions struct {
	// PoolSize is the connection count (<= 0 = wire.DefaultPoolSize).
	// Requests pipeline freely within each connection, so the pool sizes
	// for server-side parallelism, not for concurrent callers.
	PoolSize int
	// Coalesce enables the micro-coalescer: concurrent singleton Query
	// calls against the same graph are folded into one OpBatchB frame
	// (execution via the store's batch plane — answers are bit-identical
	// to the singleton route by the query plane's own differential
	// tests). Queries keep per-call contexts: a canceled caller stops
	// waiting while the folded frame completes for the rest. A folded
	// frame carries at most MaxBatchQueries queries.
	Coalesce bool
}

// WireClient is the Go client for the daemon's binary transport: a
// connection pool with true pipelining — any number of concurrent
// Query/QueryBatch calls share the pool's connections, each call
// waiting only on its own request id. Control-plane operations
// (register, metrics, snapshot) stay on the HTTP Client; pair the two
// with Client.WithWireTransport.
type WireClient struct {
	pool *wire.Pool
	co   *coalescer
}

// NewWireClient targets a wire listener ("tcp" host:port, or "unix"
// socket path).
func NewWireClient(network, addr string, opt WireOptions) *WireClient {
	c := &WireClient{pool: wire.NewPool(network, addr, opt.PoolSize)}
	if opt.Coalesce {
		c.co = newCoalescer(c)
		c.co.start()
	}
	return c
}

// TransportStats snapshots the client's transport counters (frames,
// bytes, flush coalescing, fold sizes).
func (c *WireClient) TransportStats() wire.Stats { return c.pool.Stats() }

// Ping verifies the transport end to end.
func (c *WireClient) Ping(ctx context.Context) error { return c.pool.Ping(ctx) }

// Close releases the connections; in-flight requests fail with
// wire.ErrConnClosed.
func (c *WireClient) Close() error {
	if c.co != nil {
		c.co.stop()
	}
	return c.pool.Close()
}

// Query runs one query over the wire. With coalescing enabled the call
// may travel inside a folded OpBatchB frame; either way the answer is
// the daemon's QueryResponse for exactly this request.
func (c *WireClient) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	if c.co != nil {
		return c.co.query(ctx, req)
	}
	return c.query(ctx, req)
}

// query is the direct (uncoalesced) singleton path, on the binary
// payload codec.
func (c *WireClient) query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	payload := appendWireQueryRequest(make([]byte, 0, 64), &req)
	status, body, err := c.pool.Do(ctx, wire.OpQueryB, payload)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: query: %w", err)
	}
	if status != wire.StatusOK {
		return nil, wireErr(status, body)
	}
	out, err := decodeWireQueryResponse(body)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: decode: %w", err)
	}
	return out, nil
}

// QueryBatch runs one explicit batch over the wire, with the HTTP batch
// endpoint's semantics (per-entry error isolation), on the binary
// payload codec.
func (c *WireClient) QueryBatch(ctx context.Context, req BatchRequest) (*BatchResponse, error) {
	payload := appendWireBatchRequest(make([]byte, 0, 32+56*len(req.Queries)), &req)
	status, body, err := c.pool.Do(ctx, wire.OpBatchB, payload)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: batch: %w", err)
	}
	if status != wire.StatusOK {
		return nil, wireErr(status, body)
	}
	out, err := decodeWireBatchResponse(body)
	if err != nil {
		return nil, fmt.Errorf("flowd wire: decode: %w", err)
	}
	return out, nil
}

// ---- micro-coalescer ----

// coalItem is one waiting singleton query.
type coalItem struct {
	ctx  context.Context
	req  QueryRequest
	done chan coalResult // cap 1
}

type coalResult struct {
	resp *QueryResponse
	err  error
}

// coalescer folds concurrent singleton queries into OpBatchB frames: a
// dispatcher drains everything queued at the moment it wakes, groups by
// graph id, and ships each group of two-or-more as one batch frame (a
// group of one goes out as a plain query frame — the fold never adds a
// round trip). Under sequential load every query is a group of one and
// the coalescer is a no-op; under concurrent load the fold divides the
// frame count by the burst size.
type coalescer struct {
	c      *WireClient
	ch     chan *coalItem
	stopCh chan struct{}
}

func newCoalescer(c *WireClient) *coalescer {
	return &coalescer{c: c, ch: make(chan *coalItem, 4*MaxBatchQueries), stopCh: make(chan struct{})}
}

func (co *coalescer) start() { go co.run() }

func (co *coalescer) stop() { close(co.stopCh) }

// query submits one singleton through the fold and waits for its
// result, honoring only this caller's ctx.
func (co *coalescer) query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	item := &coalItem{ctx: ctx, req: req, done: make(chan coalResult, 1)}
	select {
	case co.ch <- item:
	case <-co.stopCh:
		return co.c.query(ctx, req) // stopped: degrade to the direct path
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case r := <-item.done:
		return r.resp, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (co *coalescer) run() {
	for {
		var first *coalItem
		select {
		case first = <-co.ch:
		case <-co.stopCh:
			co.failPending()
			return
		}
		batch := []*coalItem{first}
		yielded := false
		for len(batch) < MaxBatchQueries {
			select {
			case it := <-co.ch:
				batch = append(batch, it)
				yielded = false
				continue
			default:
			}
			// Empty right after an item usually means the concurrent senders
			// haven't been scheduled yet, not that the burst is over (a send
			// into ch readies this goroutine immediately). One yield lets
			// them land; a queue still empty after that is a real lull.
			if yielded {
				break
			}
			runtime.Gosched()
			yielded = true
		}
		for graph, items := range groupByGraph(batch) {
			go co.flush(graph, items)
		}
	}
}

// failPending drains queued items after stop; their waiters fall back
// to the pool, which reports ErrPoolClosed once Close lands.
func (co *coalescer) failPending() {
	for {
		select {
		case it := <-co.ch:
			resp, err := co.c.query(it.ctx, it.req)
			it.done <- coalResult{resp: resp, err: err}
		default:
			return
		}
	}
}

func groupByGraph(items []*coalItem) map[string][]*coalItem {
	groups := make(map[string][]*coalItem, 1)
	for _, it := range items {
		groups[it.req.Graph] = append(groups[it.req.Graph], it)
	}
	return groups
}

// flush ships one graph's fold. Two or more items become an OpBatchB
// frame whose per-entry results are translated back into
// QueryResponses; the frame's context outlives any single caller (a
// canceled caller stops waiting, the frame completes for the rest).
func (co *coalescer) flush(graph string, items []*coalItem) {
	if len(items) == 1 {
		it := items[0]
		resp, err := co.c.query(it.ctx, it.req)
		it.done <- coalResult{resp: resp, err: err}
		return
	}
	co.c.pool.Counters().AddCoalesced(len(items))
	breq := BatchRequest{Graph: graph, Queries: make([]BatchQuery, len(items))}
	for i, it := range items {
		breq.Queries[i] = BatchQuery{
			Op: it.req.Op, U: it.req.U, V: it.req.V,
			Source: it.req.Source, Eps: it.req.Eps, Simulated: it.req.Simulated,
		}
	}
	bresp, err := co.c.QueryBatch(context.WithoutCancel(items[0].ctx), breq)
	if err != nil {
		for _, it := range items {
			it.done <- coalResult{err: err}
		}
		return
	}
	for i, it := range items {
		r := bresp.Results[i]
		if r.Error != "" {
			// Entry-level failures cross the batch plane as strings (as on
			// HTTP), so the status class is not recoverable here.
			it.done <- coalResult{err: fmt.Errorf("flowd wire: coalesced query: %s", r.Error)}
			continue
		}
		it.done <- coalResult{resp: &QueryResponse{
			Graph: graph, Op: r.Op,
			Value: r.Value, Dist: r.Dist, CutEdges: r.CutEdges,
			NegCycle: r.NegCycle, Iterations: r.Iterations,
			Hit: bresp.Hit, Rounds: r.Rounds, WallMS: bresp.WallMS,
		}}
	}
}
