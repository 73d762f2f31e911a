package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"planarflow/internal/flowd"
	"planarflow/internal/store"
)

func testSpec(seed int64) store.GraphSpec {
	return store.GraphSpec{Kind: "grid", Rows: 6, Cols: 6, Seed: seed, WLo: 1, WHi: 9, CLo: 1, CHi: 16}
}

// startFleet boots n replicas (spilling under t.TempDir()) and a fleet
// client over them, with probing disabled unless probe is set (tests
// drive aliveness explicitly to stay deterministic).
func startFleet(t *testing.T, n int, opt Options) ([]*Replica, *Client) {
	t.Helper()
	dir := t.TempDir()
	reps := make([]*Replica, n)
	members := make([]Member, n)
	for i := range reps {
		r, err := StartReplica(ReplicaConfig{
			Name:  fmt.Sprintf("r%d", i),
			Store: store.Config{SpillDir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		members[i] = r.Member()
		t.Cleanup(r.Stop)
	}
	c, err := New(members, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return reps, c
}

func replicaByName(reps []*Replica, name string) *Replica {
	for _, r := range reps {
		if r.Name == name {
			return r
		}
	}
	return nil
}

func TestFleetRoutesToOwner(t *testing.T) {
	reps, c := startFleet(t, 3, Options{ProbeInterval: -1})
	ctx := context.Background()
	const graphs = 6
	for i := 0; i < graphs; i++ {
		id := fmt.Sprintf("g%d", i)
		if err := c.Register(ctx, id, testSpec(int64(i+1))); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	for i := 0; i < graphs; i++ {
		id := fmt.Sprintf("g%d", i)
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		resp, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
		if err != nil {
			t.Fatalf("query %s: %v", id, err)
		}
		if !resp.Hit {
			t.Fatalf("%s not resident on owner %s after warm register", id, owner)
		}
		// Only the owner holds the graph before any standby sync.
		st := replicaByName(reps, owner).Store.Snapshot()
		if st.Graphs == 0 {
			t.Fatalf("owner %s of %s reports zero graphs", owner, id)
		}
	}
	// Registration must land every graph on exactly one replica.
	total := 0
	for _, r := range reps {
		total += r.Store.Snapshot().Graphs
	}
	if total != graphs {
		t.Fatalf("fleet holds %d registrations for %d graphs", total, graphs)
	}
}

func TestFleetFailoverBitIdentical(t *testing.T) {
	reps, c := startFleet(t, 3, Options{
		ProbeInterval: -1,
		BackoffBase:   time.Millisecond,
		BackoffCap:    5 * time.Millisecond,
	})
	ctx := context.Background()
	const id = "failover-graph"
	spec := testSpec(7)
	if err := c.Register(ctx, id, spec); err != nil {
		t.Fatal(err)
	}

	// Ground truth: answers from the fleet before the kill.
	type q struct {
		op   string
		u, v int
	}
	qs := []q{{"dist", 0, 35}, {"dist", 3, 30}, {"maxflow", 0, 35}, {"girth", 0, 0}}
	want := make([]*flowd.QueryResponse, len(qs))
	for i, qq := range qs {
		resp, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: qq.op, U: qq.u, V: qq.v})
		if err != nil {
			t.Fatalf("pre-kill %s: %v", qq.op, err)
		}
		want[i] = resp
	}

	// Replicate to the standby, then hard-kill the owner.
	if n, err := c.SyncStandby(ctx); err != nil || n == 0 {
		t.Fatalf("standby sync: n=%d err=%v", n, err)
	}
	owner, _ := c.Owner(id)
	chain := c.Ring().Successors(id, 2)
	if len(chain) != 2 {
		t.Fatalf("successor chain %v", chain)
	}
	standby := chain[1]
	sb := replicaByName(reps, standby)
	preBuilds := sb.Store.Snapshot().Builds
	st := sb.Store.Snapshot()
	if st.PeerRestores == 0 {
		t.Fatalf("standby %s has no peer restores after sync: %+v", standby, st)
	}
	replicaByName(reps, owner).Stop()

	epochBefore := c.Ring().Epoch()
	for i, qq := range qs {
		resp, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: qq.op, U: qq.u, V: qq.v})
		if err != nil {
			t.Fatalf("post-kill %s: %v", qq.op, err)
		}
		if resp.Value != want[i].Value || resp.NegCycle != want[i].NegCycle ||
			len(resp.CutEdges) != len(want[i].CutEdges) {
			t.Fatalf("post-kill %s answer differs: got %+v want %+v", qq.op, resp, want[i])
		}
	}
	if got, _ := c.Owner(id); got != standby {
		t.Fatalf("post-kill owner %s, want standby %s", got, standby)
	}
	if c.Ring().Epoch() == epochBefore {
		t.Fatal("epoch did not advance on eject")
	}
	// The standby answered from its peer-restored bundle: no new builds.
	if got := sb.Store.Snapshot().Builds; got != preBuilds {
		t.Fatalf("standby rebuilt after failover: builds %d -> %d", preBuilds, got)
	}
	if s := c.Stats(); s.Ejects == 0 || s.Failovers == 0 {
		t.Fatalf("stats missed the failover: %+v", s)
	}
}

func TestFleetAdoptWithoutStandbySync(t *testing.T) {
	reps, c := startFleet(t, 3, Options{
		ProbeInterval: -1,
		BackoffBase:   time.Millisecond,
		BackoffCap:    5 * time.Millisecond,
	})
	ctx := context.Background()
	const id = "adopt-graph"
	if err := c.Register(ctx, id, testSpec(11)); err != nil {
		t.Fatal(err)
	}
	want, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the owner with NO standby sync: the successor has never seen
	// the graph. The adopt path must register + restore on the fly. The
	// owner is dead, so the peer rung misses and the ladder falls through
	// to a shared-spill-root disk restore or a cold rebuild — either way
	// the answer must match.
	owner, _ := c.Owner(id)
	replicaByName(reps, owner).Stop()
	got, err := c.Query(ctx, flowd.QueryRequest{Graph: id, Op: "dist", U: 0, V: 35})
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	if got.Value != want.Value {
		t.Fatalf("adopted answer %d != %d", got.Value, want.Value)
	}
	if s := c.Stats(); s.Adoptions == 0 {
		t.Fatalf("adopt path not taken: %+v", s)
	}
}

func TestFleetProbeRecovery(t *testing.T) {
	_, c := startFleet(t, 2, Options{
		ProbeInterval: 10 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffCap:    5 * time.Millisecond,
	})
	// Eject a live member by hand: the probe must bring it back.
	name := c.Ring().Members()[0]
	c.eject(name, c.rootSpan(context.Background(), "test", ""))
	if c.Ring().Alive(name) {
		t.Fatal("eject did not mark dead")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Ring().Alive(name) {
		if time.Now().After(deadline) {
			t.Fatal("probe never recovered the member")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s := c.Stats(); s.Recoveries == 0 {
		t.Fatalf("recovery not counted: %+v", s)
	}
}

func TestFleetAllDead(t *testing.T) {
	reps, c := startFleet(t, 2, Options{
		ProbeInterval: -1,
		BackoffBase:   time.Millisecond,
		BackoffCap:    2 * time.Millisecond,
	})
	ctx := context.Background()
	if err := c.Register(ctx, "g", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	for _, r := range reps {
		r.Stop()
	}
	_, err := c.Query(ctx, flowd.QueryRequest{Graph: "g", Op: "dist", U: 0, V: 35})
	if err == nil {
		t.Fatal("query succeeded against a dead fleet")
	}
}

func TestReplicaDrainFlushesResident(t *testing.T) {
	dir := t.TempDir()
	r, err := StartReplica(ReplicaConfig{Name: "solo", Store: store.Config{SpillDir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := flowd.NewClient(r.Member().HTTP)
	if _, err := cl.RegisterWarm(ctx, "g", testSpec(5)); err != nil {
		t.Fatal(err)
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := r.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := r.Store.Snapshot()
	if st.SnapshotWrites == 0 {
		t.Fatalf("drain wrote no snapshots: %+v", st)
	}
	// The HTTP plane must be down after drain.
	if _, err := cl.Health(ctx); err == nil {
		t.Fatal("healthz answered after drain")
	}
}

// TestFleetRegisterRejectsLongID: an id past the store's length cap is
// refused at registration as a bad request (no failover, no adoption),
// while an id at the cap registers and serves.
func TestFleetRegisterRejectsLongID(t *testing.T) {
	_, c := startFleet(t, 2, Options{ProbeInterval: -1})
	ctx := context.Background()
	atCap := strings.Repeat("g", store.MaxIDLen)
	if err := c.Register(ctx, atCap, testSpec(1)); err != nil {
		t.Fatalf("register %d-byte id: %v", len(atCap), err)
	}
	if _, err := c.Query(ctx, flowd.QueryRequest{Graph: atCap, Op: "dist", U: 0, V: 35}); err != nil {
		t.Fatalf("query %d-byte id: %v", len(atCap), err)
	}
	var ae *flowd.APIError
	if err := c.Register(ctx, atCap+"g", testSpec(1)); !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("register %d-byte id: %v, want 400", len(atCap)+1, err)
	}
}
