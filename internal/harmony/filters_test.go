package harmony

import (
	"testing"

	"repro/internal/match"
	"repro/internal/model"
	"repro/internal/obs"
)

func TestConfidenceFilter(t *testing.T) {
	e := newEngine(t)
	all := e.Links(View{})
	some := e.Links(View{LinkFilters: []LinkFilter{ConfidenceFilter(0.3)}})
	if len(some) >= len(all) {
		t.Errorf("threshold did not filter: %d vs %d", len(some), len(all))
	}
	for _, l := range some {
		if l.Confidence < 0.3 {
			t.Errorf("link below threshold: %v", l)
		}
	}
}

func TestOriginFilter(t *testing.T) {
	e := newEngine(t)
	_ = e.Accept(firstID, nameID)
	human := e.Links(View{LinkFilters: []LinkFilter{OriginFilter(true)}})
	if len(human) != 1 || !human[0].UserDefined {
		t.Errorf("human links = %v", human)
	}
	machine := e.Links(View{LinkFilters: []LinkFilter{OriginFilter(false)}})
	for _, l := range machine {
		if l.UserDefined {
			t.Error("machine view shows user link")
		}
	}
	if len(machine)+len(human) != len(e.Links(View{})) {
		t.Error("origin filters should partition links")
	}
}

func TestMaxConfidenceView(t *testing.T) {
	e := newEngine(t)
	links := e.Links(View{MaxConfidence: true})
	// One best link (or ties) per source element.
	perSource := map[string]float64{}
	counts := map[string]int{}
	for _, l := range links {
		counts[l.Source.ID]++
		if prev, ok := perSource[l.Source.ID]; ok && prev != l.Confidence {
			t.Error("non-tied multiple links for one source in max view")
		}
		perSource[l.Source.ID] = l.Confidence
	}
	if len(perSource) != 5 {
		t.Errorf("max view covers %d sources, want 5", len(perSource))
	}
}

func TestDepthFilterEntitiesOnly(t *testing.T) {
	e := newEngine(t)
	// Depth ≤ 2 on source: purchaseOrder (1), shipTo (2); attributes are
	// depth 3 and disabled.
	links := e.Links(View{SourceNodeFilters: []NodeFilter{DepthFilter(2)}})
	for _, l := range links {
		if l.Source.Depth() > 2 {
			t.Errorf("disabled element leaked: %s", l.Source.ID)
		}
	}
	if len(links) == 0 {
		t.Error("depth filter hid everything")
	}
}

func TestSubtreeFilter(t *testing.T) {
	e := newEngine(t)
	shipTo := e.Context().Source.MustElement(shipToID)
	links := e.Links(View{SourceNodeFilters: []NodeFilter{SubtreeFilter(shipTo)}})
	for _, l := range links {
		if !l.Source.InSubtree(shipTo) {
			t.Errorf("element outside subtree leaked: %s", l.Source.ID)
		}
	}
	// purchaseOrder (the parent) is excluded: 4 subtree sources × 3 targets.
	if len(links) != 12 {
		t.Errorf("links = %d, want 12", len(links))
	}
}

func TestKindFilterAndCombination(t *testing.T) {
	e := newEngine(t)
	links := e.Links(View{
		SourceNodeFilters: []NodeFilter{KindFilter(model.KindAttribute)},
		TargetNodeFilters: []NodeFilter{KindFilter(model.KindAttribute)},
		LinkFilters:       []LinkFilter{ConfidenceFilter(-0.5)},
	})
	for _, l := range links {
		if l.Source.Kind != model.KindAttribute || l.Target.Kind != model.KindAttribute {
			t.Errorf("kind filter leaked: %v", l)
		}
	}
	if len(links) == 0 {
		t.Error("combined filters hid everything")
	}
}

func TestFilterClutterReduction(t *testing.T) {
	// The §4.2 claim, measurable: filters cut displayed links massively.
	e := newEngine(t)
	all := len(e.Links(View{}))
	focused := len(e.Links(View{
		LinkFilters:   []LinkFilter{ConfidenceFilter(0.25)},
		MaxConfidence: true,
	}))
	if all != 15 {
		t.Errorf("unfiltered links = %d, want 5×3", all)
	}
	if focused >= all/2 {
		t.Errorf("filters reduced %d only to %d", all, focused)
	}
}

// TestBlockedLinksAndCompletionSkipPrunedPairs: with blocking on, a
// pair the pattern pruned carries no evidence, so it is never a link.
// Links shows only stored cells, the max-confidence view agrees with
// MaxPerSource (a pruned pair's implicit 0 must not beat a row's
// negative stored cells), and MarkSubtreeComplete decides only stored
// cells instead of pinning every pruned pair as a reject.
func TestBlockedLinksAndCompletionSkipPrunedPairs(t *testing.T) {
	src, tgt := diffPair(5, 10, 90, 120)
	e := NewEngine(src, tgt, Options{
		Flooding: true,
		Metrics:  obs.NewRegistry(),
		Blocking: match.BlockingOptions{Enabled: true, PerSourceK: 4},
	})
	m := e.Matrix()
	stored := map[[2]string]bool{}
	m.Each(func(i, j int, _ float64) { stored[[2]string{m.Sources[i].ID, m.Targets[j].ID}] = true })
	if len(stored) == len(m.Sources)*len(m.Targets) {
		t.Fatal("blocking stored every pair; the fixture needs pruned pairs")
	}

	all := e.Links(View{})
	if len(all) != len(stored) {
		t.Fatalf("Links(View{}) = %d links; want the %d stored cells", len(all), len(stored))
	}
	for _, l := range all {
		if !stored[[2]string{l.Source.ID, l.Target.ID}] {
			t.Fatalf("pruned pair %s / %s shown as a link", l.Source.ID, l.Target.ID)
		}
	}

	best := e.Links(View{MaxConfidence: true})
	want := m.MaxPerSource(-1)
	if len(best) != len(want) {
		t.Fatalf("max-confidence view = %d links; MaxPerSource(-1) = %d", len(best), len(want))
	}
	for k, l := range best {
		if l.Correspondence != want[k] {
			t.Fatalf("max-confidence link %d = %v; MaxPerSource has %v", k, l.Correspondence, want[k])
		}
	}

	var root *model.Element
	for _, el := range src.Elements() {
		if len(el.Children()) > 0 {
			root = el
			break
		}
	}
	subtree := map[string]bool{}
	for _, el := range model.Subtree(root) {
		subtree[el.ID] = true
	}
	wantDecided := 0
	for pair := range stored {
		if subtree[pair[0]] {
			wantDecided++
		}
	}
	e.MarkSubtreeComplete(root, 0.3)
	decisions := e.Decisions()
	for pair := range decisions {
		if !stored[pair] {
			t.Fatalf("MarkSubtreeComplete decided pruned pair %s / %s", pair[0], pair[1])
		}
	}
	if len(decisions) != wantDecided {
		t.Fatalf("MarkSubtreeComplete wrote %d decisions; want the subtree's %d stored cells", len(decisions), wantDecided)
	}
}
