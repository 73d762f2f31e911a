package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"planarflow/internal/fleet"
	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// startFront boots n replicas behind an httptest front plane.
func startFront(t *testing.T, n int) (*front, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reps := make([]*fleet.Replica, n)
	members := make([]fleet.Member, n)
	for i := range reps {
		r, err := fleet.StartReplica(fleet.ReplicaConfig{
			Name:   fmt.Sprintf("r%d", i),
			Store:  store.Config{SpillDir: dir},
			Logger: quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		members[i] = r.Member()
		t.Cleanup(r.Stop)
	}
	fc, err := fleet.New(members, fleet.Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	f := &front{fc: fc, reps: reps, slowMS: 250}
	srv := httptest.NewServer(f.mux())
	t.Cleanup(srv.Close)
	return f, srv
}

func postJSON(t *testing.T, url string, body string, header http.Header) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestFleetTracezEndpoint(t *testing.T) {
	_, srv := startFront(t, 2)

	spec := `{"kind":"grid","rows":6,"cols":6,"seed":5,"w_lo":1,"w_hi":9,"c_lo":1,"c_hi":16}`
	resp := postJSON(t, srv.URL+"/v1/graphs", `{"id":"g","spec":`+spec+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// Query with an inbound trace: the front must continue it down
	// through the fleet client to the owning replica.
	tc := obs.NewTrace()
	hdr := http.Header{}
	hdr.Set(obs.TraceHeader, tc.String())
	resp = postJSON(t, srv.URL+"/v1/query", `{"graph":"g","op":"dist","u":0,"v":35}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	get := func(path string) (*http.Response, []byte) {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		return r, body
	}

	r, body := get("/fleettracez")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fleettracez: status %d: %s", r.StatusCode, body)
	}
	var tr fleetTraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("fleettracez decode: %v", err)
	}
	var found *obs.TraceView
	for i := range tr.Traces {
		if tr.Traces[i].TraceID == tc.TraceID() {
			found = &tr.Traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("inbound trace %s not stitched on /fleettracez: %+v", tc.TraceID(), tr.Traces)
	}
	if found.Hops < 2 {
		t.Fatalf("stitched trace hops = %d, want >= 2 (fleet hop + replica hop)", found.Hops)
	}

	// Family filter keeps the trace (its spans include family "dist"),
	// a non-matching family drops it.
	r, body = get("/fleettracez?family=dist")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("fleettracez?family: status %d", r.StatusCode)
	}
	var filtered fleetTraceResponse
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, tv := range filtered.Traces {
		if tv.TraceID == tc.TraceID() {
			seen = true
		}
		for _, sp := range tv.Spans {
			if sp.Family != "dist" {
				t.Fatalf("family filter leaked span %+v", sp)
			}
		}
	}
	if !seen {
		t.Fatalf("family=dist filter dropped the trace entirely")
	}

	// Malformed min_ms must 400, not 500 or silently match-all.
	if r, _ = get("/fleettracez?min_ms=banana"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad min_ms: status %d, want 400", r.StatusCode)
	}
	if r, _ = get("/fleettracez?min_ms=-1"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative min_ms: status %d, want 400", r.StatusCode)
	}
}

func TestFleetzJournal(t *testing.T) {
	f, srv := startFront(t, 2)
	f.fc.RecordDrain("r0")

	r, err := http.Get(srv.URL + "/fleetz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var fz fleetzResponse
	if err := json.NewDecoder(r.Body).Decode(&fz); err != nil {
		t.Fatal(err)
	}
	if len(fz.Journal) == 0 {
		t.Fatal("journal absent from /fleetz")
	}
	if fz.Journal[0].Type != obs.EventDrain || fz.Journal[0].Member != "r0" {
		t.Fatalf("journal head = %+v, want the drain event", fz.Journal[0])
	}
	if fz.Journal[0].Seq == 0 || fz.Journal[0].UnixMS == 0 {
		t.Fatalf("journal event missing stamps: %+v", fz.Journal[0])
	}
}

// TestFrontMetricszMergesStoreCounters: the front's /metricsz is the
// fleet's stats surface, so each replica's store counters must reach the
// merge, summed across replicas.
func TestFrontMetricszMergesStoreCounters(t *testing.T) {
	f, srv := startFront(t, 2)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("g%d", i)
		if err := f.fc.Register(ctx, id, store.GraphSpec{Kind: "grid", Rows: 5, Cols: 5, Seed: int64(i + 1), WLo: 1, WHi: 9, CLo: 1, CHi: 9}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if _, err := f.fc.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 24}); err != nil {
				t.Fatal(err)
			}
		}
	}
	owner, _ := f.fc.Owner("g0")
	for _, r := range f.reps {
		if r.Name == owner {
			r.Store.EvictAll()
		}
	}
	if _, err := f.fc.Query(ctx, flowd.QueryRequest{Graph: "g0", Op: "dist", U: 0, V: 24}); err != nil {
		t.Fatal(err)
	}

	r, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	series, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("front /metricsz: %v", err)
	}
	var want store.Stats
	for _, rep := range f.reps {
		st := rep.Store.Snapshot()
		want.Hits += st.Hits
		want.Misses += st.Misses
		want.Evictions += st.Evictions
	}
	if want.Evictions == 0 || want.Hits == 0 || want.Misses == 0 {
		t.Fatalf("script drove no hits, misses or evictions: %+v", want)
	}
	for name, v := range map[string]int64{
		"store_hits_total":      want.Hits,
		"store_misses_total":    want.Misses,
		"store_evictions_total": want.Evictions,
	} {
		got, ok := series[name]
		if !ok {
			t.Fatalf("%s missing from the fleet merge", name)
		}
		if got != float64(v) {
			t.Errorf("%s = %g, want %d (sum over replicas)", name, got, v)
		}
	}
}
