package server_test

import (
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

	before, err := c.Cells(id)
	if err != nil {
		t.Fatalf("Cells: %v", err)
	}
	re, err := c.Rematch(id, 0.2, nil, nil)
	if err != nil {
		t.Fatalf("Rematch: %v", err)
	}
	if re.Mode == harmony.RematchPins {
		t.Errorf("rematch mode = %q: the schema load went unnoticed", re.Mode)
	}
	if len(re.Cells) == 0 {
		t.Error("the reload's rematch wrote nothing")
	}
	for _, cell := range re.Cells {
		if strings.HasSuffix(cell.Source, "/firstName") {
			t.Errorf("rematch republished the renamed-away element: %+v", cell)
		}
	}
	checkPublishedLikeCold(t, c, id, "po", "si", 0.2, before, re.Cells, re.Published)
}
