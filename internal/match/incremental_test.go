package match

import (
	"math"
	"testing"

	"repro/internal/model"
)

// incrTestPair builds a small two-schema pair with entities, attributes,
// domains and documentation so every voter has evidence to score.
func incrTestPair() (*model.Schema, *model.Schema) {
	src := model.NewSchema("src", "er")
	src.AddDomain(&model.Domain{Name: "country", Doc: "country codes", Values: []model.DomainValue{
		{Code: "US", Doc: "united states"}, {Code: "DE", Doc: "germany"},
	}})
	po := src.AddElement(nil, "purchaseOrder", model.KindEntity, model.ContainsElement)
	po.Doc = "a purchase order placed by a customer"
	ship := src.AddElement(po, "shipTo", model.KindEntity, model.ContainsElement)
	ship.Doc = "shipping address of the order"
	a := src.AddElement(ship, "country", model.KindAttribute, model.ContainsAttribute)
	a.Doc = "destination country"
	a.DataType = "string"
	a.DomainRef = "country"
	b := src.AddElement(ship, "zipCode", model.KindAttribute, model.ContainsAttribute)
	b.Doc = "postal code of the shipping address"
	b.DataType = "string"
	c := src.AddElement(po, "total", model.KindAttribute, model.ContainsAttribute)
	c.Doc = "total order amount in dollars"
	c.DataType = "decimal"

	tgt := model.NewSchema("tgt", "er")
	tgt.AddDomain(&model.Domain{Name: "nation", Doc: "nation codes", Values: []model.DomainValue{
		{Code: "US", Doc: "united states of america"}, {Code: "FR", Doc: "france"},
	}})
	order := tgt.AddElement(nil, "order", model.KindEntity, model.ContainsElement)
	order.Doc = "an order submitted by a buyer"
	addr := tgt.AddElement(order, "shippingAddress", model.KindEntity, model.ContainsElement)
	addr.Doc = "where the order ships"
	d := tgt.AddElement(addr, "nation", model.KindAttribute, model.ContainsAttribute)
	d.Doc = "destination nation"
	d.DataType = "varchar"
	d.DomainRef = "nation"
	e := tgt.AddElement(addr, "postcode", model.KindAttribute, model.ContainsAttribute)
	e.Doc = "postal code for shipping"
	e.DataType = "varchar"
	f := tgt.AddElement(order, "subtotal", model.KindAttribute, model.ContainsAttribute)
	f.Doc = "order amount before tax in dollars"
	f.DataType = "numeric"
	return src, tgt
}

func matricesBitIdentical(t *testing.T, label string, want, got *Matrix) {
	t.Helper()
	if len(want.Sources) != len(got.Sources) || len(want.Targets) != len(got.Targets) {
		t.Fatalf("%s: dimensions differ: %dx%d vs %dx%d", label,
			len(want.Sources), len(want.Targets), len(got.Sources), len(got.Targets))
	}
	for i := range want.Sources {
		if want.Sources[i].ID != got.Sources[i].ID {
			t.Fatalf("%s: source order differs at %d: %s vs %s", label, i, want.Sources[i].ID, got.Sources[i].ID)
		}
	}
	for j := range want.Targets {
		if want.Targets[j].ID != got.Targets[j].ID {
			t.Fatalf("%s: target order differs at %d", label, j)
		}
	}
	for i := range want.Sources {
		for j := range want.Targets {
			w, g := want.At(i, j), got.At(i, j)
			if math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("%s: cell (%s, %s) differs: %v vs %v (bits %x vs %x)", label,
					want.Sources[i].ID, want.Targets[j].ID, w, g,
					math.Float64bits(w), math.Float64bits(g))
			}
		}
	}
}

// TestVotePatchMatchesFullVote edits one source attribute and asserts
// every incremental voter's patched matrix is bit-identical to a full
// re-vote over the edited pair.
func TestVotePatchMatchesFullVote(t *testing.T) {
	src, tgt := incrTestPair()
	ctx := NewContext(src, tgt)
	prev := map[string]*Matrix{}
	for _, v := range DefaultVoters() {
		prev[v.Name()] = v.Vote(ctx)
	}

	// Rename one attribute and retype another.
	edited := src.MustElement("src/purchaseOrder/total")
	edited.Name = "grandTotal"
	edited.DataType = "float"
	dirtySrc := map[string]bool{edited.ID: true, edited.Parent().ID: true}
	dirtyTgt := map[string]bool{}

	fresh := NewContext(src, tgt)
	for _, v := range DefaultVoters() {
		iv, ok := v.(IncrementalVoter)
		if !ok {
			t.Fatalf("builtin voter %s is not incremental", v.Name())
		}
		want := v.Vote(fresh)
		got := iv.VotePatch(fresh, prev[v.Name()], dirtySrc, dirtyTgt)
		matricesBitIdentical(t, "voter "+v.Name(), want, got)
	}
}

// TestVotePatchAddRemove exercises structural edits: a new target
// attribute and a dropped source attribute, with the dirty set closed
// over parents as the engine does.
func TestVotePatchAddRemove(t *testing.T) {
	src, tgt := incrTestPair()
	ctx := NewContext(src, tgt)
	prev := map[string]*Matrix{}
	for _, v := range DefaultVoters() {
		prev[v.Name()] = v.Vote(ctx)
	}

	addr := tgt.MustElement("tgt/order/shippingAddress")
	added := tgt.AddElement(addr, "street", model.KindAttribute, model.ContainsAttribute)
	added.Doc = "street line of the address"
	added.DataType = "string"
	removedParent := src.MustElement("src/purchaseOrder/shipTo")
	src.RemoveElement("src/purchaseOrder/shipTo/zipCode")

	dirtySrc := ExpandDirty(src, map[string]bool{"src/purchaseOrder/shipTo/zipCode": true})
	dirtySrc[removedParent.ID] = true // parent of a removed element
	dirtyTgt := ExpandDirty(tgt, map[string]bool{added.ID: true})

	fresh := NewContext(src, tgt)
	for _, v := range DefaultVoters() {
		want := v.Vote(fresh)
		var got *Matrix
		if cs, ok := v.(CorpusSensitive); ok && cs.CorpusSensitive() {
			// Adding/removing documented elements changes every IDF
			// weight, so corpus-sensitive voters must re-vote fully —
			// the engine enforces this via the corpus fingerprint.
			got = v.Vote(fresh)
		} else {
			got = v.(IncrementalVoter).VotePatch(fresh, prev[v.Name()], dirtySrc, dirtyTgt)
		}
		matricesBitIdentical(t, "voter "+v.Name(), want, got)
	}
}

// TestMergePatchMatchesFullMerge asserts cross-shaped re-merging equals
// a full merge bit for bit, including with learned weights and the
// magnitude ablation off.
func TestMergePatchMatchesFullMerge(t *testing.T) {
	src, tgt := incrTestPair()
	ctx := NewContext(src, tgt)
	voters := DefaultVoters()
	votes := func(c *Context) []Vote {
		out := make([]Vote, len(voters))
		for i, v := range voters {
			out[i] = Vote{Voter: v.Name(), Matrix: v.Vote(c)}
		}
		return out
	}
	for _, magnitude := range []bool{true, false} {
		g := NewMerger()
		g.MagnitudeWeighting = magnitude
		g.SetWeight("name", 1.3)
		g.SetWeight("data-type", 0.4)
		prev := g.Merge(votes(ctx))

		edited := src.MustElement("src/purchaseOrder/shipTo/country")
		edited.Name = "countryCode"
		fresh := NewContext(src, tgt)
		dirtySrc := ExpandDirty(src, map[string]bool{edited.ID: true})
		newVotes := votes(fresh)
		want := g.Merge(newVotes)
		got := g.MergePatch(newVotes, prev, dirtySrc, map[string]bool{})
		matricesBitIdentical(t, "merge", want, got)
		edited.Name = "country" // restore for the second ablation pass
	}
}

// TestHarmonyFloodPatchMatchesFull asserts warm-started flooding equals
// the cold flood bit for bit across dirty-set shapes, including a dirty
// leaf whose effect must propagate to its parent's pairs.
func TestHarmonyFloodPatchMatchesFull(t *testing.T) {
	src, tgt := incrTestPair()
	ctx := NewContext(src, tgt)
	g := NewMerger()
	voters := DefaultVoters()
	mkVotes := func(c *Context) []Vote {
		out := make([]Vote, len(voters))
		for i, v := range voters {
			out[i] = Vote{Voter: v.Name(), Matrix: v.Vote(c)}
		}
		return out
	}
	opts := FloodOptions{Iterations: 3}
	merged := g.Merge(mkVotes(ctx))
	_, state := HarmonyFloodState(merged, src, tgt, opts)

	// Edit a leaf: its pairs change, and via up-propagation its parent's
	// pairs change in later rounds.
	edited := src.MustElement("src/purchaseOrder/shipTo/country")
	edited.Name = "countryOfDestination"
	fresh := NewContext(src, tgt)
	dirtySrc := ExpandDirty(src, map[string]bool{edited.ID: true})
	newMerged := g.MergePatch(mkVotes(fresh), merged, dirtySrc, map[string]bool{})

	want, wantState := HarmonyFloodState(newMerged, src, tgt, opts)
	got, gotState, ok := HarmonyFloodPatch(state, newMerged, src, tgt, dirtySrc, map[string]bool{}, opts)
	if !ok {
		t.Fatal("HarmonyFloodPatch rejected a compatible state")
	}
	matricesBitIdentical(t, "flood", want, got)
	if len(wantState.Rounds) != len(gotState.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(wantState.Rounds), len(gotState.Rounds))
	}
	for k := range wantState.Rounds {
		matricesBitIdentical(t, "flood round", wantState.Rounds[k], gotState.Rounds[k])
	}

	// Incompatible schedule must be refused, not silently misused.
	if _, _, ok := HarmonyFloodPatch(state, newMerged, src, tgt, dirtySrc, map[string]bool{}, FloodOptions{Iterations: 2}); ok {
		t.Fatal("HarmonyFloodPatch accepted a state recorded under a different schedule")
	}
	if _, _, ok := HarmonyFloodPatch(nil, newMerged, src, tgt, dirtySrc, map[string]bool{}, opts); ok {
		t.Fatal("HarmonyFloodPatch accepted a nil state")
	}
}

// TestFloodSingleSweepUnchanged pins the refactored single-sweep
// HarmonyFlood against a hand-executed two-sweep round on a tiny case
// where up- and down-propagation both fire on the same cell.
func TestFloodSingleSweepUnchanged(t *testing.T) {
	src := model.NewSchema("s", "er")
	pe := src.AddElement(nil, "e", model.KindEntity, model.ContainsElement)
	src.AddElement(pe, "a", model.KindAttribute, model.ContainsAttribute)
	tgt := model.NewSchema("t", "er")
	qe := tgt.AddElement(nil, "f", model.KindEntity, model.ContainsElement)
	tgt.AddElement(qe, "b", model.KindAttribute, model.ContainsAttribute)

	m := MatrixOver(src, tgt)
	m.Set("s/e", "t/f", -0.4)    // negative parent pair
	m.Set("s/e/a", "t/f/b", 0.6) // positive child pair
	opts := FloodOptions{Iterations: 1, UpWeight: 0.3, DownWeight: 0.3}
	out := HarmonyFlood(m.Clone(), src, tgt, opts)

	// Parent pair: childLift = 0.6 > 0 → blend(-0.4, 0.6, 0.3) = -0.1;
	// its own parent is the root, so no down sweep.
	if got, want := out.Get("s/e", "t/f"), blend(-0.4, 0.6, 0.3); got != want {
		t.Fatalf("parent pair = %v; want %v", got, want)
	}
	// Child pair: leaf (no up), parent pair scored -0.4 < 0 →
	// blend(0.6, -0.4, 0.3) = 0.3.
	if got, want := out.Get("s/e/a", "t/f/b"), blend(0.6, -0.4, 0.3); got != want {
		t.Fatalf("child pair = %v; want %v", got, want)
	}
}

// TestHarmonyFloodPatchWarmStartRule guards when flooding may warm-start.
// Unblocked matrices never drift, whatever their sizes: an add or a drop
// still warm-starts and matches the cold flood. A blocking pattern that
// drifted, or blocking toggled either way, forfeits the warm start,
// because a flood cell reads its structural neighbours through the
// pattern.
func TestHarmonyFloodPatchWarmStartRule(t *testing.T) {
	src, tgt := incrTestPair()
	g := NewMerger()
	merge := func() *Matrix {
		ctx := NewContext(src, tgt)
		var votes []Vote
		for _, v := range DefaultVoters() {
			votes = append(votes, Vote{Voter: v.Name(), Matrix: v.Vote(ctx)})
		}
		return g.Merge(votes)
	}
	opts := FloodOptions{Iterations: 2}
	none := map[string]bool{}
	_, state := HarmonyFloodState(merge(), src, tgt, opts)

	added := src.AddElement(src.MustElement("src/purchaseOrder/shipTo"), "city", model.KindAttribute, model.ContainsAttribute)
	added.DataType = "string"
	grown := merge()
	want, _ := HarmonyFloodState(grown, src, tgt, opts)
	got, grownState, ok := HarmonyFloodPatch(state, grown, src, tgt, ExpandDirty(src, map[string]bool{added.ID: true}), none, opts)
	if !ok {
		t.Fatal("unblocked matrix with a grown source list: warm start refused")
	}
	matricesBitIdentical(t, "grown", want, got)

	// The added attribute has no documentation, so dropping it again
	// leaves every TF-IDF weight, and so every clean merged cell, alone.
	parent := added.Parent()
	src.RemoveElement(added.ID)
	shrunk := merge()
	want, unblockedState := HarmonyFloodState(shrunk, src, tgt, opts)
	got, _, ok = HarmonyFloodPatch(grownState, shrunk, src, tgt, map[string]bool{added.ID: true, parent.ID: true}, none, opts)
	if !ok {
		t.Fatal("unblocked matrix with a shrunk source list: warm start refused")
	}
	matricesBitIdentical(t, "shrunk", want, got)

	// Two patterns over the current lists: every column but the last,
	// and every column but the first.
	blocked := func(skip int) *Matrix {
		rows := make([][]int32, len(shrunk.Sources))
		for i := range rows {
			for j := range shrunk.Targets {
				if j != skip {
					rows[i] = append(rows[i], int32(j))
				}
			}
		}
		m := NewSparseMatrix(shrunk.Sources, shrunk.Targets, NewPattern(rows))
		m.Each(func(i, j int, _ float64) { m.SetAt(i, j, shrunk.At(i, j)) })
		return m
	}
	last := len(shrunk.Targets) - 1
	_, blockedState := HarmonyFloodState(blocked(last), src, tgt, opts)
	if _, _, ok := HarmonyFloodPatch(blockedState, blocked(last), src, tgt, none, none, opts); !ok {
		t.Fatal("equal blocking patterns: warm start refused")
	}
	if _, _, ok := HarmonyFloodPatch(blockedState, blocked(0), src, tgt, none, none, opts); ok {
		t.Fatal("drifted blocking pattern: warm start accepted")
	}
	if _, _, ok := HarmonyFloodPatch(blockedState, shrunk, src, tgt, none, none, opts); ok {
		t.Fatal("blocked to unblocked toggle: warm start accepted")
	}
	if _, _, ok := HarmonyFloodPatch(unblockedState, blocked(last), src, tgt, none, none, opts); ok {
		t.Fatal("unblocked to blocked toggle: warm start accepted")
	}
}
