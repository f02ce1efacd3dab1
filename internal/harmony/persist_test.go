package harmony

import (
	"testing"

	"repro/internal/blackboard"
)

func persistMapping(t *testing.T) *blackboard.Mapping {
	t.Helper()
	bb := blackboard.New()
	if _, err := bb.PutSchema(poSource()); err != nil {
		t.Fatal(err)
	}
	if _, err := bb.PutSchema(siTarget()); err != nil {
		t.Fatal(err)
	}
	mp, err := bb.NewMapping("session", "purchaseOrder", "shippingInfo")
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func TestSessionSaveLoadRoundTrip(t *testing.T) {
	mp := persistMapping(t)

	// Day 1: decisions and a completed subtree.
	e1 := newEngine(t)
	e1.Run()
	_ = e1.Accept(firstID, nameID)
	_ = e1.Reject(firstID, totalID)
	shipTo := e1.Context().Source.MustElement(shipToID)
	e1.MarkSubtreeComplete(shipTo, 0.3)
	progress1 := e1.Progress()
	e1.SaveTo(mp, "harmony")

	// Day 2: a fresh engine resumes from the blackboard.
	e2 := newEngine(t)
	loaded := e2.LoadFrom(mp)
	if loaded == 0 {
		t.Fatal("no decisions loaded")
	}
	e2.Run()
	m := e2.Matrix()
	if m.Get(firstID, nameID) != 1 {
		t.Error("accept lost across sessions")
	}
	if m.Get(firstID, totalID) != -1 {
		t.Error("reject lost across sessions")
	}
	if !e2.IsComplete(shipToID) || !e2.IsComplete(firstID) {
		t.Error("completion flags lost across sessions")
	}
	if e2.Progress() != progress1 {
		t.Errorf("progress %g → %g across sessions", progress1, e2.Progress())
	}
	// Re-running does not disturb restored pins (§4.3 guarantee).
	e2.Run()
	if e2.Matrix().Get(firstID, nameID) != 1 {
		t.Error("restored pin lost on rerun")
	}
}

// TestLoadFromPinsEveryUserCell: LoadFrom follows the match sessions'
// one pin rule — every user-defined cell pins, its sign deciding accept
// or reject — and never pins a machine cell.
func TestLoadFromPinsEveryUserCell(t *testing.T) {
	mp := persistMapping(t)
	mp.SetCell(firstID, nameID, 0.7, false, "harmony")   // machine
	mp.SetCell(lastID, nameID, 0.5, true, "odd")         // user, mid-range
	mp.SetCell(firstID, totalID, -0.2, true, "odd")      // user, negative
	mp.SetCell(subtotalID, totalID, 1, true, "engineer") // decision
	e := newEngine(t)
	if got := e.LoadFrom(mp); got != 3 {
		t.Errorf("loaded = %d, want 3", got)
	}
	if e.IsUserDefined(firstID, nameID) {
		t.Error("machine cell loaded as a decision")
	}
	d := e.Decisions()
	if !d[[2]string{lastID, nameID}].Accepted || !d[[2]string{subtotalID, totalID}].Accepted {
		t.Errorf("positive user cells not accepted: %v", d)
	}
	if got, ok := d[[2]string{firstID, totalID}]; !ok || got.Accepted {
		t.Errorf("negative user cell not rejected: %v", d)
	}
}

func TestLoadFromUnknownElementsIgnored(t *testing.T) {
	mp := persistMapping(t)
	mp.SetCell("ghost/element", nameID, 1, true, "engineer")
	e := newEngine(t)
	if got := e.LoadFrom(mp); got != 0 {
		t.Errorf("loaded = %d, want 0 (unknown element)", got)
	}
}
