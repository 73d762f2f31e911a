package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"planarflow"
)

// bundleStats reads the resident bundle's own Stats through a pin, for
// comparison with what the store accounted.
func bundleStats(t *testing.T, s *Store, id string) planarflow.PreparedStats {
	t.Helper()
	var ps planarflow.PreparedStats
	err := s.With(context.Background(), id, func(pg *planarflow.PreparedGraph, _ bool) error {
		ps = pg.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// checkAccounted asserts the store's footprint equals the bundle's.
func checkAccounted(t *testing.T, s *Store, id string) (Stats, planarflow.PreparedStats) {
	t.Helper()
	ps := bundleStats(t, s, id)
	st := s.Snapshot()
	if st.Bytes != ps.Bytes {
		t.Fatalf("store accounted %d bytes, bundle holds %d", st.Bytes, ps.Bytes)
	}
	return st, ps
}

// TestReleaseSeesLaterSubstrate: a resident bundle that builds a second
// kind of substrate on a later query (dist builds the primal labeling,
// dualsssp then builds the dual one) advances the accounting on that
// query's release — the warm queries in between must not have frozen it.
func TestReleaseSeesLaterSubstrate(t *testing.T) {
	s := New(Config{})
	g, err := s.RegisterSpec("g", gridSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := s.Do(ctx, "g", planarflow.DistQuery(0, g.N()-1-i)); err != nil {
			t.Fatal(err)
		}
	}
	st1, ps1 := checkAccounted(t, s, "g")
	if st1.Builds != int64(len(ps1.Substrates)) || st1.BuildRounds != ps1.BuildRounds {
		t.Fatalf("after dist: builds/rounds %d/%d, bundle %d/%d",
			st1.Builds, st1.BuildRounds, len(ps1.Substrates), ps1.BuildRounds)
	}
	if _, _, err := s.Do(ctx, "g", planarflow.DualSSSPQuery(0)); err != nil {
		t.Fatal(err)
	}
	st2, ps2 := checkAccounted(t, s, "g")
	if st2.Builds != st1.Builds+1 || st2.Builds != int64(len(ps2.Substrates)) {
		t.Fatalf("after dualsssp: builds %d, want %d (= %d substrates)", st2.Builds, st1.Builds+1, len(ps2.Substrates))
	}
	if st2.Bytes <= st1.Bytes {
		t.Fatalf("bytes did not grow: %d -> %d", st1.Bytes, st2.Bytes)
	}
	if st2.BuildRounds <= st1.BuildRounds || st2.BuildRounds != ps2.BuildRounds {
		t.Fatalf("build rounds %d -> %d, bundle %d", st1.BuildRounds, st2.BuildRounds, ps2.BuildRounds)
	}
}

// TestRestoredBundleAccountedOnce installs a bundle through each restore
// route — a miss restoring from disk, TryRestore, InstallSnapshot and
// SnapshotTo's disk promotion — then serves warm queries on it: the
// restored footprint is counted once, never as builds, and a substrate
// built afterwards is still picked up.
func TestRestoredBundleAccountedOnce(t *testing.T) {
	dir := t.TempDir()
	src := New(Config{SpillDir: dir})
	if _, err := src.RegisterSpec("g", gridSpec(6)); err != nil {
		t.Fatal(err)
	}
	want := warmDist(t, src, "g")
	if n, err := src.SnapshotResident(); err != nil || n != 1 {
		t.Fatalf("SnapshotResident = %d, %v", n, err)
	}
	var snap bytes.Buffer
	if ok, err := src.SnapshotTo("g", &snap); err != nil || !ok {
		t.Fatalf("SnapshotTo = %v, %v", ok, err)
	}
	routes := []struct {
		name    string
		restore func(t *testing.T, s *Store) error
	}{
		{"miss", func(t *testing.T, s *Store) error { warmDist(t, s, "g"); return nil }},
		{"TryRestore", func(_ *testing.T, s *Store) error { return wantTrue(s.TryRestore("g")) }},
		{"InstallSnapshot", func(_ *testing.T, s *Store) error { return wantTrue(s.InstallSnapshot("g", snap.Bytes())) }},
		{"SnapshotTo", func(_ *testing.T, s *Store) error { return wantTrue(s.SnapshotTo("g", io.Discard)) }},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			s := New(Config{SpillDir: dir})
			if _, err := s.RegisterSpec("g", gridSpec(6)); err != nil {
				t.Fatal(err)
			}
			if err := r.restore(t, s); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if got := warmDist(t, s, "g"); got != want {
					t.Fatalf("dist %d, want %d", got, want)
				}
			}
			st, ps := checkAccounted(t, s, "g")
			if st.Builds != 0 || st.BuildRounds != 0 {
				t.Fatalf("restore counted as builds: builds=%d rounds=%d", st.Builds, st.BuildRounds)
			}
			if st.SnapshotRestores+st.PeerRestores != 1 {
				t.Fatalf("restores = %d disk + %d peer, want 1", st.SnapshotRestores, st.PeerRestores)
			}
			if _, _, err := s.Do(context.Background(), "g", planarflow.DualSSSPQuery(0)); err != nil {
				t.Fatal(err)
			}
			st2, ps2 := checkAccounted(t, s, "g")
			if st2.Builds != 1 || len(ps2.Substrates) != len(ps.Substrates)+1 {
				t.Fatalf("built after restore: store %d, bundle %d -> %d substrates",
					st2.Builds, len(ps.Substrates), len(ps2.Substrates))
			}
			if st2.BuildRounds != ps2.BuildRounds-ps.BuildRounds {
				t.Fatalf("build rounds %d, want the new substrate's %d", st2.BuildRounds, ps2.BuildRounds-ps.BuildRounds)
			}
		})
	}
}

func wantTrue(ok bool, err error) error {
	if err == nil && !ok {
		err = errors.New("nothing restored")
	}
	return err
}

// TestConcurrentFirstQueriesAccountOnce races many first queries over
// one build on fresh graphs: whichever releases see the publish, the
// store ends with exactly the bundle's footprint, builds and rounds.
func TestConcurrentFirstQueriesAccountOnce(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		id := fmt.Sprintf("g%d", round)
		if _, err := s.RegisterSpec(id, gridSpec(int64(10+round))); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				q := planarflow.DualSSSPQuery(w % 3)
				if w%2 == 1 {
					q = planarflow.DistQuery(0, w)
				}
				if _, _, err := s.Do(ctx, id, q); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	var bytes, builds, rounds int64
	for round := 0; round < 4; round++ {
		ps := bundleStats(t, s, fmt.Sprintf("g%d", round))
		bytes += ps.Bytes
		builds += int64(len(ps.Substrates))
		rounds += ps.BuildRounds
	}
	st := s.Snapshot()
	if st.Bytes != bytes || st.Builds != builds || st.BuildRounds != rounds {
		t.Fatalf("store accounted bytes/builds/rounds %d/%d/%d, bundles hold %d/%d/%d",
			st.Bytes, st.Builds, st.BuildRounds, bytes, builds, rounds)
	}
}

// BenchmarkStoreDoWarm is one warm point query through the store: pin,
// library decode, release. A warm release publishes nothing, so it must
// not re-read the bundle's Stats.
func BenchmarkStoreDoWarm(b *testing.B) {
	s := New(Config{})
	g, err := s.RegisterSpec("g", gridSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	q := planarflow.DistQuery(0, g.N()-1)
	if _, _, err := s.Do(ctx, "g", q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Do(ctx, "g", q); err != nil {
			b.Fatal(err)
		}
	}
}
