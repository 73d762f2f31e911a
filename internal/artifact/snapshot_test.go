package artifact

import (
	"bytes"
	"context"
	"testing"

	"planarflow/internal/ledger"
	"planarflow/internal/planar"
)

// TestImportSkipsOccupiedSlots: a resident substrate wins over the
// snapshot — importing must not yank a built substrate out from under
// live queries, and the skipped import must not double-count build cost.
func TestImportSkipsOccupiedSlots(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(5, 5), planar.NewRand(3), 1, 9, 1, 16)

	// Donor bundle: tree + undirected dual labeling.
	donor := New(g)
	led := ledger.New()
	if _, err := donor.DualLabels(Undirected, 0, led); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.Export(&snap); err != nil {
		t.Fatal(err)
	}

	// Receiver already built its own tree; the import must keep it and
	// seed only the labeling.
	recv := New(g)
	ownTree, err := recv.Tree(0, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	before := recv.Stats()
	if err := recv.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	after := recv.Stats()
	if len(after.Substrates) != len(before.Substrates)+1 {
		t.Fatalf("import added %d substrates, want 1", len(after.Substrates)-len(before.Substrates))
	}
	keptTree, err := recv.Tree(0, ledger.New())
	if err != nil {
		t.Fatal(err)
	}
	if keptTree != ownTree {
		t.Fatal("import replaced a resident substrate")
	}
	// The labeling arrived warm: fetching it charges nothing new.
	qled := ledger.New()
	if _, err := recv.DualLabels(Undirected, 0, qled); err != nil {
		t.Fatal(err)
	}
	if qled.Total() != 0 {
		t.Fatalf("restored labeling charged %d rounds on fetch", qled.Total())
	}
	// BuildLedger == sum of slot costs still holds.
	var slotSum int64
	for _, s := range after.Substrates {
		slotSum += s.BuildRounds
	}
	if got := recv.BuildLedger().Total(); got != slotSum {
		t.Fatalf("BuildLedger %d != slot sum %d", got, slotSum)
	}
}

// TestExportImportEmpty: an unbuilt bundle exports a valid empty
// snapshot, and importing it is a no-op.
func TestExportImportEmpty(t *testing.T) {
	g := planar.Grid(4, 4)
	p := New(g)
	var snap bytes.Buffer
	if err := p.Export(&snap); err != nil {
		t.Fatal(err)
	}
	q := New(g)
	if err := q.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := len(q.Stats().Substrates); n != 0 {
		t.Fatalf("empty import produced %d substrates", n)
	}
}

// TestGenerationTracksPublishes: the generation moves with every
// substrate a build or an import publishes, and with nothing else —
// cache hits, canceled builds and skipped import sections leave it, so
// a reader that accounted Stats at one generation can trust it until it
// moves.
func TestGenerationTracksPublishes(t *testing.T) {
	g := planar.WithRandomWeights(planar.Grid(5, 5), planar.NewRand(4), 1, 9, 1, 16)
	p := New(g)
	gens := func(want uint64) {
		t.Helper()
		if got := p.Generation(); got != want {
			t.Fatalf("generation %d, want %d (%d substrates)", got, want, len(p.Stats().Substrates))
		}
	}
	gens(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.WithContext(ctx).DualLabels(Undirected, 0, ledger.New()); err == nil {
		t.Fatal("canceled build succeeded")
	}
	gens(0)
	if _, err := p.DualLabels(Undirected, 0, ledger.New()); err != nil { // tree + labeling
		t.Fatal(err)
	}
	gens(2)
	if _, err := p.DualLabels(Undirected, 0, ledger.New()); err != nil { // hit
		t.Fatal(err)
	}
	gens(2)
	if _, err := p.PrimalLabels(Undirected, 0, ledger.New()); err != nil { // labeling only
		t.Fatal(err)
	}
	gens(3)

	var snap bytes.Buffer
	if err := p.Export(&snap); err != nil {
		t.Fatal(err)
	}
	fresh := New(g)
	if err := fresh.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Generation(); got != 3 {
		t.Fatalf("import of 3 substrates: generation %d", got)
	}
	if err := fresh.ImportInto(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Generation(); got != 3 {
		t.Fatalf("re-import into occupied slots moved the generation to %d", got)
	}
}
