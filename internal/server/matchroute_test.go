package server_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/harmony"
)

// TestMatchRouteRematchesLiveEngine re-posts the match route after a
// decision and a schema reload: the route runs through the mapping's
// live engine, which re-matches in place rather than starting over, and
// publishes exactly what a cold match of a fresh mapping over the same
// schemas publishes, with the analyst's decision untouched.
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

	if _, err := c.NewMapping("fresh", "po", "si"); err != nil {
		t.Fatalf("NewMapping: %v", err)
	}
	cold, err := c.Match("fresh", 0.2)
	if err != nil {
		t.Fatalf("cold Match: %v", err)
	}
	want := map[[2]string]uint64{}
	for _, cell := range cold.Cells {
		if pair := [2]string{cell.Source, cell.Target}; pair != decided {
			want[pair] = math.Float64bits(cell.Confidence)
		}
	}
	got := 0
	for _, cell := range again.Cells {
		pair := [2]string{cell.Source, cell.Target}
		if pair == decided {
			if cell != dec {
				t.Errorf("decided cell changed: %+v, decided %+v", cell, dec)
			}
			continue
		}
		got++
		if bits, ok := want[pair]; !ok || bits != math.Float64bits(cell.Confidence) {
			t.Errorf("cell %s → %s = %v; cold match has %v (present=%v)",
				cell.Source, cell.Target, cell.Confidence, math.Float64frombits(bits), ok)
		}
	}
	if got != len(want) {
		t.Errorf("match published %d machine cells, cold match %d", got, len(want))
	}
	cells, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	for _, cell := range cells {
		if [2]string{cell.Source, cell.Target} == decided && cell != dec {
			t.Errorf("stored decided cell changed: %+v, decided %+v", cell, dec)
		}
	}
}
