package harmony

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
)

// Figure 2 fixtures, shared across the harmony tests.

func poSource() *model.Schema {
	s := model.NewSchema("purchaseOrder", "xsd")
	po := s.AddElement(nil, "purchaseOrder", model.KindEntity, model.ContainsElement)
	po.Doc = "A purchase order submitted by a customer"
	shipTo := s.AddElement(po, "shipTo", model.KindEntity, model.ContainsElement)
	shipTo.Doc = "Shipping destination address for the order"
	fn := s.AddElement(shipTo, "firstName", model.KindAttribute, model.ContainsAttribute)
	fn.DataType = "string"
	fn.Doc = "Given name of the person receiving the shipment"
	ln := s.AddElement(shipTo, "lastName", model.KindAttribute, model.ContainsAttribute)
	ln.DataType = "string"
	ln.Doc = "Family name of the person receiving the shipment"
	st := s.AddElement(shipTo, "subtotal", model.KindAttribute, model.ContainsAttribute)
	st.DataType = "decimal"
	st.Doc = "Sum of line item prices before tax"
	return s
}

func siTarget() *model.Schema {
	s := model.NewSchema("shippingInfo", "xsd")
	si := s.AddElement(nil, "shippingInfo", model.KindEntity, model.ContainsElement)
	si.Doc = "Information about where an order ships"
	nm := s.AddElement(si, "name", model.KindAttribute, model.ContainsAttribute)
	nm.DataType = "string"
	nm.Doc = "Full name of the shipment recipient"
	tot := s.AddElement(si, "total", model.KindAttribute, model.ContainsAttribute)
	tot.DataType = "decimal"
	tot.Doc = "Total price of the order including tax"
	return s
}

const (
	shipToID   = "purchaseOrder/purchaseOrder/shipTo"
	firstID    = "purchaseOrder/purchaseOrder/shipTo/firstName"
	lastID     = "purchaseOrder/purchaseOrder/shipTo/lastName"
	subtotalID = "purchaseOrder/purchaseOrder/shipTo/subtotal"
	siID       = "shippingInfo/shippingInfo"
	nameID     = "shippingInfo/shippingInfo/name"
	totalID    = "shippingInfo/shippingInfo/total"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return NewEngine(poSource(), siTarget(), Options{Flooding: true})
}

func TestRunProducesSensibleScores(t *testing.T) {
	e := newEngine(t)
	timings := e.Run()
	if len(timings) < 8 { // 6 voters + merge + flooding + pin
		t.Errorf("timings = %d stages", len(timings))
	}
	m := e.Matrix()
	// The Figure 3 intuition: shipTo↔shippingInfo positive; shipTo vs
	// name/total (entity vs attribute) negative.
	if got := m.Get(shipToID, siID); got <= 0 {
		t.Errorf("shipTo↔shippingInfo = %g, want positive", got)
	}
	if got := m.Get(shipToID, nameID); got >= 0 {
		t.Errorf("shipTo↔name = %g, want negative", got)
	}
	// subtotal↔total should beat firstName↔total.
	if m.Get(subtotalID, totalID) <= m.Get(firstID, totalID) {
		t.Error("subtotal should prefer total over firstName")
	}
}

func TestMatrixLazyRun(t *testing.T) {
	e := newEngine(t)
	if e.Matrix() == nil {
		t.Fatal("Matrix should auto-run")
	}
}

func TestAcceptRejectPinning(t *testing.T) {
	e := newEngine(t)
	if err := e.Accept(firstID, nameID); err != nil {
		t.Fatal(err)
	}
	if err := e.Reject(firstID, totalID); err != nil {
		t.Fatal(err)
	}
	m := e.Matrix()
	if m.Get(firstID, nameID) != 1 || m.Get(firstID, totalID) != -1 {
		t.Error("decisions not pinned at ±1")
	}
	if !e.IsUserDefined(firstID, nameID) || e.IsUserDefined(lastID, nameID) {
		t.Error("user-defined tracking wrong")
	}
	// Pins survive re-runs (§4.3: links do not mysteriously disappear).
	e.Run()
	m = e.Matrix()
	if m.Get(firstID, nameID) != 1 || m.Get(firstID, totalID) != -1 {
		t.Error("decisions lost after re-run")
	}
}

func TestDecideErrors(t *testing.T) {
	e := newEngine(t)
	if err := e.Accept("ghost", nameID); err == nil {
		t.Error("unknown source should error")
	}
	if err := e.Reject(firstID, "ghost"); err == nil {
		t.Error("unknown target should error")
	}
}

func TestUnpin(t *testing.T) {
	e := newEngine(t)
	_ = e.Accept(firstID, nameID)
	e.Unpin(firstID, nameID)
	e.Run()
	if e.Matrix().Get(firstID, nameID) == 1 {
		t.Error("unpinned pair should be re-scored")
	}
	if e.IsUserDefined(firstID, nameID) {
		t.Error("unpinned pair should not be user-defined")
	}
}

func TestDecisionsCopy(t *testing.T) {
	e := newEngine(t)
	_ = e.Accept(firstID, nameID)
	d := e.Decisions()
	if len(d) != 1 || !d[[2]string{firstID, nameID}].Accepted {
		t.Errorf("Decisions = %v", d)
	}
}

func TestLearnAdjustsVoterWeights(t *testing.T) {
	e := newEngine(t)
	e.Run()
	// Confirm pairs the name and doc voters favored.
	_ = e.Accept(shipToID, siID)
	_ = e.Accept(subtotalID, totalID)
	_ = e.Reject(firstID, totalID)
	before := e.Merger().Weight("name")
	e.Learn()
	after := e.Merger().Weight("name")
	if after == before {
		t.Errorf("name voter weight unchanged after learning: %g", after)
	}
}

// TestLearnIsDeterministic learns from two accepted and three rejected
// pairs whose documentation all reads "order amount". Every engine must
// learn the same bits, for every merger weight and for the word weight
// of "order", whatever order the decision map yields: both learning
// loops sum or multiply per decision, in one fixed order.
func TestLearnIsDeterministic(t *testing.T) {
	build := func(name, prefix string) *model.Schema {
		s := model.NewSchema(name, "er")
		ent := s.AddElement(nil, name+"Entity", model.KindEntity, model.ContainsElement)
		for a := 0; a < 5; a++ {
			at := s.AddElement(ent, fmt.Sprintf("%s%d", prefix, a), model.KindAttribute, model.ContainsAttribute)
			at.Doc = "order amount"
		}
		return s
	}
	var want map[string]uint64
	for n := 0; n < 200; n++ {
		src, tgt := build("s", "a"), build("t", "b")
		e := NewEngine(src, tgt, Options{Flooding: true, Metrics: obs.NewRegistry()})
		e.Run()
		for a := 0; a < 5; a++ {
			decide := e.Accept
			if a >= 2 {
				decide = e.Reject
			}
			if err := decide(fmt.Sprintf("s/sEntity/a%d", a), fmt.Sprintf("t/tEntity/b%d", a)); err != nil {
				t.Fatal(err)
			}
		}
		e.Learn()
		got := map[string]uint64{"word order": math.Float64bits(e.ctx.Corpus.WordWeight("order"))}
		for voter, w := range e.Merger().Weights() {
			got[voter] = math.Float64bits(w)
		}
		if n == 0 {
			if got["word order"] == math.Float64bits(1) {
				t.Fatal("the word weight of \"order\" did not move")
			}
			want = got
			continue
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("engine %d learned %s = %v, engine 0 %v", n, k, math.Float64frombits(got[k]), math.Float64frombits(w))
			}
		}
	}
}

func TestLearnNoOpWithoutRunsOrDecisions(t *testing.T) {
	e := newEngine(t)
	e.Learn() // no votes yet: must not panic
	e.Run()
	e.Learn() // no decisions: no-op
	if w := e.Merger().Weight("name"); w != 1 {
		t.Errorf("weight moved without feedback: %g", w)
	}
}

func TestLearnWordWeights(t *testing.T) {
	e := newEngine(t)
	e.Run()
	// firstName's and name's docs share recipient/name/shipment words.
	_ = e.Accept(firstID, nameID)
	e.Learn()
	// A shared predictive word got upweighted; "shipment" appears in
	// firstName's doc and name's doc.
	if w := e.Context().Corpus.WordWeight("shipment"); w <= 1 {
		// tokens are stemmed: check the stem too
		if w2 := e.Context().Corpus.WordWeight("recipi"); w2 <= 1 {
			t.Errorf("no shared doc word upweighted (shipment=%g, recipi=%g)", w, w2)
		}
	}
}

func TestIterativeLearningIsGentleAndPreservesRanking(t *testing.T) {
	// §4.3: "learning new weights must be done carefully". One round of
	// feedback must not swing related scores wildly, and the correct
	// target must stay top-ranked for the related element.
	e := newEngine(t)
	e.Run()
	before := e.Matrix().Get(lastID, nameID)
	_ = e.Accept(firstID, nameID) // related pair shares doc vocabulary
	e.Learn()
	e.Run()
	after := e.Matrix().Get(lastID, nameID)
	if diff := after - before; diff < -0.15 || diff > 0.5 {
		t.Errorf("learning swung related pair too hard: %g → %g", before, after)
	}
	m := e.Matrix()
	if m.Get(lastID, nameID) <= m.Get(lastID, totalID) {
		t.Error("correct target no longer top-ranked for lastName")
	}
}

func TestStageTimingsCoverVoters(t *testing.T) {
	e := NewEngine(poSource(), siTarget(), Options{
		Voters:   []match.Voter{match.NameVoter{}, match.DocVoter{}},
		Flooding: false,
	})
	timings := e.Run()
	names := map[string]bool{}
	for _, st := range timings {
		names[st.Stage] = true
	}
	for _, want := range []string{"voter:name", "voter:documentation", "merge", "pin-decisions"} {
		if !names[want] {
			t.Errorf("missing stage %q in %v", want, names)
		}
	}
	if names["flooding"] {
		t.Error("flooding stage present though disabled")
	}
}

func TestRunTimingsAgreeWithMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewEngine(poSource(), siTarget(), Options{Flooding: true, Metrics: reg})
	timings := e.Run()
	timings = append(timings, e.Run()...)

	hist, ok := reg.Find(MetricStageDuration)
	if !ok {
		t.Fatalf("%s not in registry", MetricStageDuration)
	}
	// Sum the timings per stage and compare against the histogram sums:
	// both must describe the identical measurements.
	wantSum := map[string]float64{}
	for _, st := range timings {
		wantSum[st.Stage] += st.Duration.Seconds()
	}
	gotSum := map[string]float64{}
	for _, s := range hist.Series {
		if s.Count != 2 {
			t.Errorf("stage %q observed %d times, want 2", s.Labels["stage"], s.Count)
		}
		gotSum[s.Labels["stage"]] = s.Sum
	}
	if len(gotSum) != len(wantSum) {
		t.Fatalf("stage sets differ: metrics %v vs timings %v", gotSum, wantSum)
	}
	for stage, want := range wantSum {
		got, ok := gotSum[stage]
		if !ok {
			t.Errorf("stage %q missing from metrics", stage)
			continue
		}
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("stage %q: metric sum %v != timing sum %v", stage, got, want)
		}
	}
	if runs, _ := reg.Find(MetricRuns); len(runs.Series) != 1 || runs.Series[0].Value != 2 {
		t.Errorf("%s = %+v, want 2", MetricRuns, runs)
	}
	// Every voter plus merge, flooding and pin-decisions must be present.
	for _, want := range []string{"voter:name", "voter:documentation", "merge", "flooding", "pin-decisions"} {
		if _, ok := wantSum[want]; !ok {
			t.Errorf("stage %q missing from timings", want)
		}
	}
}
