package flowd

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"planarflow/internal/store"
)

// wireCodecs indexes the binary payload codec's four message types by
// the fuzz target's kind argument. Each entry decodes b and returns nil
// on rejection, or the accepted value re-encoded through the matching
// appendWire*; accepted requests must also satisfy the invariants the
// HTTP decoders enforce.
var wireCodecs = [...]struct {
	name      string
	roundTrip func(t *testing.T, b []byte) []byte
}{
	{"query-request", func(t *testing.T, b []byte) []byte {
		r, err := decodeWireQueryRequest(b)
		if err != nil {
			return nil
		}
		checkAccepted(t, r.Graph, r.Op, r.U, r.V, r.Source, r.Eps)
		return appendWireQueryRequest(nil, r)
	}},
	{"batch-request", func(t *testing.T, b []byte) []byte {
		r, err := decodeWireBatchRequest(b)
		if err != nil {
			return nil
		}
		if len(r.Queries) == 0 || len(r.Queries) > MaxBatchQueries {
			t.Fatalf("accepted batch of %d queries", len(r.Queries))
		}
		if r.Workers < 0 || r.Workers > MaxBatchWorkers {
			t.Fatalf("accepted workers=%d", r.Workers)
		}
		for _, q := range r.Queries {
			checkAccepted(t, r.Graph, q.Op, q.U, q.V, q.Source, q.Eps)
		}
		return appendWireBatchRequest(nil, r)
	}},
	{"query-response", func(t *testing.T, b []byte) []byte {
		r, err := decodeWireQueryResponse(b)
		if err != nil {
			return nil
		}
		return appendWireQueryResponse(nil, r)
	}},
	{"batch-response", func(t *testing.T, b []byte) []byte {
		r, err := decodeWireBatchResponse(b)
		if err != nil {
			return nil
		}
		return appendWireBatchResponse(nil, r)
	}},
}

// checkAccepted restates the request invariants independently of
// checkArgs: a graph id within the registration cap, a known op,
// non-negative ids, eps in [0, 1).
func checkAccepted(t *testing.T, graph, op string, u, v, source int, eps float64) {
	t.Helper()
	switch {
	case graph == "" || len(graph) > store.MaxIDLen:
		t.Fatalf("accepted graph id of length %d", len(graph))
	case !opSet[op]:
		t.Fatalf("accepted unknown op %q", op)
	case u < 0 || v < 0 || source < 0:
		t.Fatalf("accepted negative ids (u=%d v=%d source=%d)", u, v, source)
	case !(eps >= 0 && eps < 1):
		t.Fatalf("accepted eps %v", eps)
	}
}

// wireCodecSeeds are the payload shapes the fuzzer starts from, keyed by
// corpus file name: valid encodings of every message type (nil and empty
// slices, a graph id at the length cap, per-entry errors) plus the
// rejection classes (id over the cap, unknown op, bad bool byte,
// NaN eps, slice count past the input, truncation, trailing bytes).
func wireCodecSeeds() map[string]struct {
	kind uint8
	data []byte
} {
	q := QueryRequest{Graph: "g", Op: "stflow", U: 0, V: 5, Eps: 0.25}
	query := appendWireQueryRequest(nil, &q)
	longID := q
	longID.Graph = strings.Repeat("x", store.MaxIDLen)
	tooLong := q
	tooLong.Graph = strings.Repeat("x", store.MaxIDLen+1)
	badOp := q
	badOp.Op = "warp"
	nanEps := append([]byte(nil), query...)
	copy(nanEps[len(nanEps)-9:], []byte{0x01, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // quiet NaN, LE

	batch := appendWireBatchRequest(nil, &BatchRequest{Graph: "g", Workers: 2, Queries: []BatchQuery{
		{Op: "dist", U: 0, V: 5}, {Op: "girth"}, {Op: "dualsssp", Source: 3},
	}})
	emptyBatch := appendWireBatchRequest(nil, &BatchRequest{Graph: "g"})

	resp := appendWireQueryResponse(nil, &QueryResponse{
		Graph: "g", Op: "dualsssp", Value: 7, Dist: []int64{0, 3, -1}, CutEdges: []int{},
		Hit: true, Rounds: Rounds{Total: 9, Build: 5, Query: 4}, WallMS: 0.5,
	})
	hugeSlice := appendWireQueryResponse(nil, &QueryResponse{Graph: "g", Op: "dist"})
	copy(hugeSlice[4+1+4+4+8:], []byte{0xfe, 0xff, 0xff, 0x7f}) // Dist count ~2^31

	bresp := appendWireBatchResponse(nil, &BatchResponse{Graph: "g", Hit: true, WallMS: 1.25, Results: []BatchResult{
		{Op: "maxflow", Value: 12, CutEdges: []int{4, 9}, Iterations: 3, Rounds: Rounds{Total: 2}},
		{Op: "dist", Error: "vertex out of range"},
	}})

	type seed = struct {
		kind uint8
		data []byte
	}
	return map[string]seed{
		"query-request":           {0, query},
		"query-request-id-at-cap": {0, appendWireQueryRequest(nil, &longID)},
		"query-request-id-over":   {0, appendWireQueryRequest(nil, &tooLong)},
		"query-request-bad-op":    {0, appendWireQueryRequest(nil, &badOp)},
		"query-request-bad-bool":  {0, append(append([]byte(nil), query[:len(query)-1]...), 2)},
		"query-request-nan-eps":   {0, nanEps},
		"query-request-trailing":  {0, append(append([]byte(nil), query...), 0)},
		"query-request-truncated": {0, query[:len(query)/2]},
		"batch-request":           {1, batch},
		"batch-request-empty":     {1, emptyBatch},
		"batch-request-truncated": {1, batch[:len(batch)-3]},
		"query-response":          {2, resp},
		"query-response-huge-len": {2, hugeSlice},
		"batch-response":          {3, bresp},
		"batch-response-trailing": {3, append(append([]byte(nil), bresp...), 1, 2)},
		"empty":                   {0, nil},
	}
}

// TestWriteWireCodecSeedCorpus (with -update-corpus) materializes the
// seeds as committed corpus files under testdata/fuzz/FuzzWireCodec so
// the regular `go test` run replays them and CI fuzzing starts warm.
func TestWriteWireCodecSeedCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWireCodec")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := wireCodecSeeds()
	for name, s := range seeds {
		body := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", s.kind, s.data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d corpus seeds to %s", len(seeds), dir)
}

// FuzzWireCodec holds the binary payload codec — the only wire payload
// decoder that reads untrusted input — to its contract. kind selects the
// message type (query/batch request, query/batch response). No input
// panics; any accepted input re-encodes byte-identically through the
// matching appendWire*, and accepted requests satisfy the same
// invariants the HTTP decoders enforce.
func FuzzWireCodec(f *testing.F) {
	for _, s := range wireCodecSeeds() {
		f.Add(s.kind, s.data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		c := wireCodecs[int(kind)%len(wireCodecs)]
		re := c.roundTrip(t, data)
		if re != nil && !bytes.Equal(re, data) {
			t.Fatalf("%s: re-encode diverged from accepted input", c.name)
		}
	})
}
