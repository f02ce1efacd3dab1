package server_test

// End-to-end tests of the incremental rematch route: match → decide →
// rematch must take the pins fast path; a schema re-load must move the
// schema version the match session compares, so the next rematch
// re-reads and takes an incremental path; and a rematch without a prior
// match degrades to a cold run. All through the thin Go client, like
// the rest of the server suite.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/harmony"
	"repro/internal/server"
)

func TestRematchRoute(t *testing.T) {
	c, _ := startServer(t, "", false)
	if _, err := c.OpenSession("carol"); err != nil {
		t.Fatalf("OpenSession: %v", err)
	}
	id := loadPair(t, c)

	match, err := c.Match(id, 0.2)
	if err != nil || match.Published == 0 {
		t.Fatalf("Match = %+v, %v", match, err)
	}

	// Decision-only change → pins fast path, no matrix recompute.
	first := match.Cells[0]
	if _, err := c.Decide(id, first.Source, first.Target, "accept"); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode != harmony.RematchPins {
		t.Fatalf("post-decide mode = %q; want %q", re.Mode, harmony.RematchPins)
	}
	if re.Published == 0 {
		t.Fatalf("rematch published nothing: %+v", re)
	}
	// The accepted pair must survive as a user-defined cell, not be
	// clobbered by the republish.
	cells, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	var sawPin bool
	for _, cell := range cells {
		if cell.Source == first.Source && cell.Target == first.Target {
			if !cell.UserDefined || cell.Confidence != 1 {
				t.Fatalf("pinned cell was clobbered: %+v", cell)
			}
			sawPin = true
		}
	}
	if !sawPin {
		t.Fatal("accepted cell missing from the mapping")
	}

	// Re-load the source schema with one element renamed: the schema-graph
	// event marks the session stale, and the rematch must re-read the
	// blackboard and recompute incrementally (not pins, not cold).
	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if text == schemaText(t, "purchaseOrder.xsd") {
		t.Fatal("test schema edit did not apply")
	}
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}
	re2, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch after reload: %v", err)
	}
	switch re2.Mode {
	case harmony.RematchIncremental, harmony.RematchCorpus:
	default:
		t.Fatalf("post-reload mode = %q; want incremental or corpus", re2.Mode)
	}

	// The rematch stored its recomputed matrices under the new content
	// keys, so a second mapping over the same pair full-runs entirely
	// from cache.
	if _, err := c.NewMapping("m2", "po", "si"); err != nil {
		t.Fatalf("NewMapping m2: %v", err)
	}
	if _, err := c.Match("m2", 0.2); err != nil {
		t.Fatalf("Match m2: %v", err)
	}
	re3, err := c.Rematch("m2", 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch m2: %v", err)
	}
	if re3.Cache.Hits == 0 {
		t.Fatalf("expected cache hits for a repeat pair, got %+v", re3.Cache)
	}
}

func TestRematchWithoutPriorMatchRunsCold(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode != harmony.RematchCold {
		t.Fatalf("mode = %q; want %q", re.Mode, harmony.RematchCold)
	}
	if re.Published == 0 {
		t.Fatalf("cold rematch published nothing: %+v", re)
	}
	// A second rematch with nothing changed rides the pins fast path.
	re2, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("second Rematch: %v", err)
	}
	if re2.Mode != harmony.RematchPins {
		t.Fatalf("idle mode = %q; want %q", re2.Mode, harmony.RematchPins)
	}
	if re.Published != re2.Published {
		t.Fatalf("published drifted: %d vs %d", re.Published, re2.Published)
	}
}

// TestRematchCellsMatchStoredCells checks that the cells a match or
// rematch returns are the stored cells, Revision included: publish reads
// them inside its transaction, for pinned, unchanged and rewritten pairs
// alike.
func TestRematchCellsMatchStoredCells(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	match, err := c.Match(id, 0.2)
	if err != nil || len(match.Cells) < 2 {
		t.Fatalf("Match = %+v, %v", match, err)
	}
	sameAsStored := func(what string, got []server.CellInfo) {
		t.Helper()
		stored, err := c.Cells(id)
		if err != nil {
			t.Fatalf("Cells: %v", err)
		}
		byPair := map[[2]string]server.CellInfo{}
		for _, cell := range stored {
			byPair[[2]string{cell.Source, cell.Target}] = cell
		}
		for _, cell := range got {
			if want := byPair[[2]string{cell.Source, cell.Target}]; cell != want {
				t.Errorf("%s returned %+v, stored %+v", what, cell, want)
			}
		}
	}
	sameAsStored("match", match.Cells)

	if _, err := c.Decide(id, match.Cells[0].Source, match.Cells[0].Target, "accept"); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if _, err := c.Decide(id, match.Cells[1].Source, match.Cells[1].Target, "reject"); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	sameAsStored("pins rematch", re.Cells)

	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}
	re, err = c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch after reload: %v", err)
	}
	if re.Mode == harmony.RematchPins {
		t.Fatalf("post-reload mode = %q; want a re-read", re.Mode)
	}
	sameAsStored("rematch after reload", re.Cells)
}

// TestSchemaLoadDuringMatchKeepsStaleMark loads a new schema version
// while a match runs — held open by a chaos delay between its schema read
// and its engine run. The load's stale mark must survive the match, so
// the next rematch re-reads the schemas and scores bit-identically to a
// cold match over the new version.
func TestSchemaLoadDuringMatchKeepsStaleMark(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	defer chaos.Reset()
	chaos.Enable(harmony.SiteSessionSchemas, chaos.Rule{Kind: chaos.FaultDelay, Every: 1, Limit: 1, Delay: 500 * time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := c.Match(id, 0.2)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); chaos.Fired(harmony.SiteSessionSchemas) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("match never reached its schema read")
		}
	}
	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Match: %v", err)
	}
	chaos.Reset()

	before, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode == harmony.RematchPins {
		t.Fatalf("rematch mode = %q: the stale mark of the load was lost", re.Mode)
	}
	if len(re.Cells) == 0 {
		t.Error("the reload's rematch wrote nothing")
	}
	checkPublishedLikeCold(t, c, id, "po", "si", 0.2, before, re.Cells, re.Published)
}
