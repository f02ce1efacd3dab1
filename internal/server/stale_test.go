package server_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/harmony"
	"repro/internal/wbmgr"
)

// TestDroppedSchemaEventStillRereads loads a new schema version while
// the wbmgr.publish failpoint drops every event delivery. The match
// session must notice the load anyway — it compares the schemas'
// blackboard versions, not events — so the next rematch re-reads,
// publishes nothing on the renamed-away element, and scores
// bit-identically to a cold match over the new version.
func TestDroppedSchemaEventStillRereads(t *testing.T) {
	c, srv := startServer(t, "", false)
	// The server subscribes to nothing; an observing tool gives the
	// failpoint a delivery to drop.
	srv.Manager().Subscribe(wbmgr.EventSchemaGraph, "observer", func(wbmgr.Event) {})
	id := loadPair(t, c)
	if _, err := c.Match(id, 0.2); err != nil {
		t.Fatalf("Match: %v", err)
	}
	defer chaos.Reset()
	chaos.Enable(wbmgr.SitePublish, chaos.Rule{Kind: chaos.FaultError, Every: 1})
	text := strings.Replace(schemaText(t, "purchaseOrder.xsd"), `"firstName"`, `"givenName"`, 1)
	if _, err := c.LoadSchema("po", "xsd", text); err != nil {
		t.Fatalf("LoadSchema v2: %v", err)
	}
	if chaos.Fired(wbmgr.SitePublish) == 0 {
		t.Fatal("the load's event deliveries were not dropped")
	}
	chaos.Reset()

	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode == harmony.RematchPins {
		t.Errorf("rematch mode = %q: the schema load went unnoticed", re.Mode)
	}
	if _, err := c.NewMapping("cold", "po", "si"); err != nil {
		t.Fatalf("NewMapping: %v", err)
	}
	cold, err := c.Match("cold", 0.2)
	if err != nil {
		t.Fatalf("cold Match: %v", err)
	}
	want := map[[2]string]uint64{}
	for _, cell := range cold.Cells {
		want[[2]string{cell.Source, cell.Target}] = math.Float64bits(cell.Confidence)
	}
	if len(re.Cells) != len(want) {
		t.Errorf("rematch returned %d cells, cold match %d", len(re.Cells), len(want))
	}
	for _, cell := range re.Cells {
		if strings.HasSuffix(cell.Source, "/firstName") {
			t.Errorf("rematch republished the renamed-away element: %+v", cell)
		}
		if bits, ok := want[[2]string{cell.Source, cell.Target}]; !ok || bits != math.Float64bits(cell.Confidence) {
			t.Errorf("cell %s → %s = %v; cold run has %v (present=%v)",
				cell.Source, cell.Target, cell.Confidence, math.Float64frombits(bits), ok)
		}
	}
}
