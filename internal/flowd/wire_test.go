package flowd

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"planarflow/internal/obs"
	"planarflow/internal/store"
	"planarflow/internal/wire"
)

// newWireDaemon spins up one daemon serving both planes: the HTTP mux on
// an httptest server and the wire transport on an ephemeral loopback TCP
// listener (plus UDS when udsDir is non-empty). Returns the HTTP client,
// the wire address, and the UDS path ("" if unused).
func newWireDaemon(t *testing.T, cfg store.Config, udsDir string) (*Client, *Server, string, string) {
	t.Helper()
	st := store.New(cfg)
	s := NewServerWith(st, ServerOptions{Registry: obs.NewRegistry()})
	hsrv := httptest.NewServer(s)
	t.Cleanup(hsrv.Close)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Wire().Serve(ln)
	t.Cleanup(func() { s.Wire().Close() })

	uds := ""
	if udsDir != "" {
		uds = filepath.Join(udsDir, "flowd.sock")
		uln, err := net.Listen("unix", uds)
		if err != nil {
			t.Fatal(err)
		}
		go s.Wire().Serve(uln)
	}
	return NewClient(hsrv.URL).WithHTTPClient(hsrv.Client()), s, ln.Addr().String(), uds
}

// marshalDeterministic renders a QueryResponse for comparison with the
// timing field zeroed (WallMS is wall clock, everything else must be
// bit-identical between transports).
func marshalDeterministic(t *testing.T, r *QueryResponse) string {
	t.Helper()
	cp := *r
	cp.WallMS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWireDifferentialIdentity is the tentpole's correctness gate: the
// identical request sequence — every query family on a grid and a
// triangulation, cold through warm — replayed against three identically
// configured daemons, one over HTTP and two over the wire transport
// (TCP and UDS), must produce bit-identical QueryResponses at every
// step: full JSON including hit bits and round counts (WallMS is wall
// clock and excepted). Replaying the whole sequence per daemon means
// cache-state evolution (first query builds, later ones hit) is part of
// what must match — the wire plane is transport, not semantics.
func TestWireDifferentialIdentity(t *testing.T) {
	ctx := context.Background()

	httpRef, _, _, _ := newWireDaemon(t, store.Config{}, "")
	tcpC, _, tcpAddr, _ := newWireDaemon(t, store.Config{}, "")
	udsC, _, _, uds := newWireDaemon(t, store.Config{}, t.TempDir())

	wcTCP := NewWireClient("tcp", tcpAddr, WireOptions{})
	defer wcTCP.Close()
	wcUDS := NewWireClient("unix", uds, WireOptions{PoolSize: 1})
	defer wcUDS.Close()
	targets := []struct {
		name  string
		admin *Client // registers on its own daemon (HTTP control plane)
		query *Client // queries over the wire transport
	}{
		{"wire-tcp", tcpC, tcpC.WithWireTransport(wcTCP)},
		{"wire-uds", udsC, udsC.WithWireTransport(wcUDS)},
	}

	graphs := []struct {
		id   string
		spec store.GraphSpec
	}{
		{"grid", store.GraphSpec{Kind: "grid", Rows: 7, Cols: 7, Seed: 11, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
		{"tri", store.GraphSpec{Kind: "triangulation", N: 40, Seed: 5, WLo: 1, WHi: 9, CLo: 1, CHi: 16}},
	}
	var gridN int
	for _, g := range graphs {
		reg, err := httpRef.Register(ctx, g.id, g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.id == "grid" {
			gridN = reg.N
		}
		for _, tg := range targets {
			if _, err := tg.admin.Register(ctx, g.id, g.spec); err != nil {
				t.Fatalf("%s register: %v", tg.name, err)
			}
		}
		// The same sequence twice: pass 0 exercises cold builds (hit=false,
		// build rounds), pass 1 the warm path (hit=true) — both must match.
		for pass := 0; pass < 2; pass++ {
			for _, req := range FamilyChecks(g.id, reg.N, reg.Faces) {
				want, err := httpRef.Query(ctx, req)
				if err != nil {
					t.Fatalf("%s/%s http: %v", g.id, req.Op, err)
				}
				wantJSON := marshalDeterministic(t, want)
				for _, tg := range targets {
					got, err := tg.query.Query(ctx, req)
					if err != nil {
						t.Fatalf("%s/%s %s: %v", g.id, req.Op, tg.name, err)
					}
					if gotJSON := marshalDeterministic(t, got); gotJSON != wantJSON {
						t.Errorf("%s/%s pass %d: %s answer diverges from http:\n http: %s\n wire: %s",
							g.id, req.Op, pass, tg.name, wantJSON, gotJSON)
					}
				}
			}
		}
	}

	// Batch parity at the same sequence point: the same queries shipped as
	// one OpBatchB frame must match the HTTP batch route result for result.
	breq := BatchRequest{Graph: "grid", Queries: []BatchQuery{
		{Op: "dist", U: 0, V: gridN - 1}, {Op: "maxflow", U: 0, V: gridN - 1}, {Op: "girth"},
	}}
	hb, err := httpRef.QueryBatch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range targets {
		wb, err := tg.query.QueryBatch(ctx, breq)
		if err != nil {
			t.Fatalf("%s batch: %v", tg.name, err)
		}
		hb.WallMS, wb.WallMS = 0, 0
		hj, _ := json.Marshal(hb)
		wj, _ := json.Marshal(wb)
		if string(hj) != string(wj) {
			t.Errorf("%s batch diverges:\n http: %s\n wire: %s", tg.name, hj, wj)
		}
	}
}

// TestWireErrorParity pins the error mapping table: each failure class
// must surface with the documented wire status, and the cancellation
// statuses must errors.Is-match the context sentinels as they would
// in-process.
func TestWireErrorParity(t *testing.T) {
	hc, _, addr, _ := newWireDaemon(t, store.Config{}, "")
	wc := NewWireClient("tcp", addr, WireOptions{PoolSize: 1})
	defer wc.Close()
	ctx := context.Background()

	if _, err := hc.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4, Seed: 1, WLo: 1, WHi: 5, CLo: 1, CHi: 8}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  QueryRequest
		want wire.Status
	}{
		{"unknown graph", QueryRequest{Graph: "nope", Op: "dist", U: 0, V: 1}, wire.StatusNotFound},
		{"bad vertex", QueryRequest{Graph: "g", Op: "dist", U: 0, V: 99999}, wire.StatusBadRequest},
	}
	for _, tc := range cases {
		_, err := wc.Query(ctx, tc.req)
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want StatusError", tc.name, err)
		}
		if se.Status != tc.want {
			t.Errorf("%s: status = %s, want %s", tc.name, se.Status, tc.want)
		}
	}

	// Malformed payloads at the decode layer: garbage bytes must come
	// back as StatusBadRequest, not kill the connection.
	status, body, err := wc.pool.Do(ctx, wire.OpQueryB, []byte("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if status != wire.StatusBadRequest || len(body) == 0 {
		t.Fatalf("garbage query: (%v, %q)", status, body)
	}
	if err := wc.Ping(ctx); err != nil {
		t.Fatalf("conn did not survive a bad request: %v", err)
	}

	// The sentinel mapping itself.
	if !errors.Is(&StatusError{Status: wire.StatusCanceled}, context.Canceled) {
		t.Error("StatusCanceled does not match context.Canceled")
	}
	if !errors.Is(&StatusError{Status: wire.StatusTimeout}, context.DeadlineExceeded) {
		t.Error("StatusTimeout does not match context.DeadlineExceeded")
	}
	if errors.Is(&StatusError{Status: wire.StatusNotFound}, context.Canceled) {
		t.Error("StatusNotFound must not match context.Canceled")
	}
}

// TestCoalescerFoldsBurst drives the micro-coalescer deterministically:
// items enqueued before the dispatcher starts must fold into OpBatchB
// frames (observable in the transport counters), and every caller must
// still get its own correct answer.
func TestCoalescerFoldsBurst(t *testing.T) {
	hc, s, addr, _ := newWireDaemon(t, store.Config{}, "")
	ctx := context.Background()
	reg, err := hc.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: 7, WLo: 1, WHi: 9, CLo: 1, CHi: 16})
	if err != nil {
		t.Fatal(err)
	}

	wc := &WireClient{pool: wire.NewPool("tcp", addr, 1)}
	wc.co = newCoalescer(wc) // not started: the burst queues first
	defer wc.Close()

	const n = 16
	var wg sync.WaitGroup
	resps := make([]*QueryResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = wc.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: i, V: reg.N - 1 - i})
		}(i)
	}
	// All n are parked in the coalescer's queue; release the dispatcher.
	for len(wc.co.ch) < n {
	}
	wc.co.start()
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		want, err := hc.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: i, V: reg.N - 1 - i})
		if err != nil {
			t.Fatal(err)
		}
		if resps[i].Value != want.Value || resps[i].Op != "dist" || resps[i].Graph != "g" {
			t.Errorf("query %d: coalesced value %d, http %d", i, resps[i].Value, want.Value)
		}
	}

	cst := wc.TransportStats()
	if cst.CoalescedBatches == 0 || cst.CoalescedQueries < n {
		t.Fatalf("client saw no folding: %+v", cst)
	}
	if cst.CoalescedMax != int64(n) {
		t.Errorf("coalesced_max = %d, want %d (single burst, one graph)", cst.CoalescedMax, n)
	}
	// The server counts the same fold from its side of the wire.
	sst := s.Wire().Stats()
	if sst.CoalescedQueries < n {
		t.Fatalf("server saw no folding: %+v", sst)
	}
	// The fold must not multiply frames: n queries, 1 batch frame.
	if cst.FramesOut >= int64(n) {
		t.Errorf("frames_out = %d for %d coalesced queries — fold did not reduce frames", cst.FramesOut, n)
	}
}

// TestStatszTransportCounters: /metricsz exposes the wire plane's
// server-side counters once traffic has flowed.
func TestStatszTransportCounters(t *testing.T) {
	hc, _, addr, _ := newWireDaemon(t, store.Config{}, "")
	ctx := context.Background()
	if _, err := hc.Register(ctx, "g", store.GraphSpec{Kind: "grid", Rows: 4, Cols: 4, Seed: 2, WLo: 1, WHi: 5, CLo: 1, CHi: 8}); err != nil {
		t.Fatal(err)
	}
	wc := NewWireClient("tcp", addr, WireOptions{})
	defer wc.Close()
	qc := hc.WithWireTransport(wc)
	for i := 0; i < 5; i++ {
		if _, err := qc.Query(ctx, QueryRequest{Graph: "g", Op: "dist", U: 0, V: 15}); err != nil {
			t.Fatal(err)
		}
	}

	m := scrape(t, hc)
	tr := func(name string) float64 { return m[name+`{role="server"}`] }
	if tr("wire_conns_total") < 1 || tr("wire_frames_in_total") < 5 || tr("wire_frames_out_total") < 5 ||
		tr("wire_bytes_in_total") == 0 || tr("wire_bytes_out_total") == 0 {
		t.Fatalf("transport counters: conns=%g frames in=%g out=%g bytes in=%g out=%g",
			tr("wire_conns_total"), tr("wire_frames_in_total"), tr("wire_frames_out_total"),
			tr("wire_bytes_in_total"), tr("wire_bytes_out_total"))
	}
	if tr("wire_conns_open") < 1 {
		t.Fatalf("wire_conns_open = %g with a live client", tr("wire_conns_open"))
	}
	if n := m["flowd_write_errors_total"]; n != 0 {
		t.Fatalf("flowd_write_errors_total = %g on a healthy run", n)
	}
}

// TestWriteJSONCountsEncodeErrors: a response body that fails midway
// through streaming (client hangup) must land in the
// flowd_write_errors_total counter instead of vanishing.
func TestWriteJSONCountsEncodeErrors(t *testing.T) {
	s := NewServerWith(store.New(store.Config{}), ServerOptions{Registry: obs.NewRegistry()})
	s.writeJSON(failingWriter{}, http.StatusOK, map[string]string{"k": "v"})
	if got := s.writeErrs.Value(); got != 1 {
		t.Fatalf("writeErrs = %d after failed encode, want 1", got)
	}
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]string{"k": "v"})
	if got := s.writeErrs.Value(); got != 1 {
		t.Fatalf("writeErrs = %d after healthy encode, want 1", got)
	}
	if !strings.Contains(rec.Body.String(), `"k":"v"`) {
		t.Fatalf("healthy write body %q", rec.Body.String())
	}
}

type failingWriter struct{}

func (failingWriter) Header() http.Header       { return http.Header{} }
func (failingWriter) WriteHeader(int)           {}
func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("client hung up") }
