package server_test

import (
	"strings"
	"testing"

	"repro/internal/harmony"
)

// TestMatchRouteRematchesLiveEngine re-posts the match route after a
// decision and a schema reload: the route runs through the mapping's
// live engine, which re-matches in place rather than starting over,
// writes exactly the links that moved, and leaves the mapping's cells
// as a cold match of a fresh mapping over the same schemas scores
// them, with the analyst's decision untouched.
func TestMatchRouteRematchesLiveEngine(t *testing.T) {
	c, _ := startServer(t, "", false)
	id := loadPair(t, c)
	first, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	var decided [2]string
	for _, cell := range first.Cells {
		if !strings.Contains(cell.Source, "firstName") {
			decided = [2]string{cell.Source, cell.Target}
			break
		}
	}
	if decided[0] == "" {
		t.Fatalf("no cell to decide among %+v", first.Cells)
	}
	dec, err := c.Decide(id, decided[0], decided[1], "accept")
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}

	before, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	again, err := c.Match(id, 0.2)
	if err != nil {
		t.Fatalf("second Match: %v", err)
	}
	tr, err := c.Trace(c.LastTrace())
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	ix := indexTrace(t, tr)
	switch mode := ix.attr(ix.find("match.run"), "rematch_mode"); mode {
	case harmony.RematchIncremental, harmony.RematchCorpus:
	default:
		t.Errorf("match route span rematch_mode = %q; want incremental or corpus", mode)
	}
	if len(again.Cells) == 0 {
		t.Error("the reload's rematch wrote nothing")
	}
	checkPublishedLikeCold(t, c, id, "po", "si", 0.2, before, again.Cells, again.Published)
	cells, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	if got := byPair(cells)[decided]; got != dec {
		t.Errorf("stored decided cell changed: %+v, decided %+v", got, dec)
	}
}
